(* Tests for the ledger benchmark harness, run against the built binaries:
   the names it prints match BENCHMARK.json, a tampered golden fails the
   run, and one-pass runs print the result line the contract asks for.

   Usage: test_ledger LEDGER_EXE ARMVIRT_EXE BENCHMARK_JSON GOLDEN_DIR *)

module Json = Armvirt_obs.Stat

let ledger, armvirt, benchmark_json, golden_dir =
  match Sys.argv with
  | [| _; l; a; b; g |] -> (l, a, b, g)
  | _ -> failwith "usage: test_ledger LEDGER ARMVIRT BENCHMARK_JSON GOLDEN_DIR"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Exit code and stdout of one harness run. *)
let run_ledger args =
  let argv = Array.of_list (ledger :: "--armvirt" :: armvirt :: args) in
  let ic = Unix.open_process_args_in ledger argv in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (code, out)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.fail "ledger killed"

let parse text =
  match Json.parse_json text with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable JSON (%s): %s" e text

let member key = function
  | Json.Obj fields -> (
      match List.assoc_opt key fields with
      | Some v -> v
      | None -> Alcotest.failf "no member %S" key)
  | _ -> Alcotest.failf "not an object (looking up %S)" key

let str = function Json.Str s -> s | _ -> Alcotest.fail "not a string"
let num = function Json.Num n -> n | _ -> Alcotest.fail "not a number"
let arr = function Json.Arr l -> l | _ -> Alcotest.fail "not an array"

let last_line out =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
  | line :: _ -> parse line
  | [] -> Alcotest.fail "no output"

let test_names_match_benchmark_json () =
  let code, out = run_ledger [ "--names" ] in
  Alcotest.(check int) "exit" 0 code;
  let printed kind =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | k :: rest when k = kind -> Some (String.concat " " rest)
        | _ -> None)
      (String.split_on_char '\n' out)
  in
  let doc = parse (read_file benchmark_json) in
  let declared key with_unit =
    List.map
      (fun m ->
        let name = str (member "name" m) in
        if with_unit then name ^ " " ^ str (member "unit" m) else name)
      (arr (member key doc))
  in
  Alcotest.(check (list string)) "workloads" (declared "workloads" false)
    (printed "workload");
  Alcotest.(check (list string)) "end_to_end" (declared "end_to_end" true)
    (printed "end_to_end");
  Alcotest.(check (list string)) "per_layer" (declared "per_layer" true)
    (printed "per_layer")

let smoke workload () =
  let code, out =
    run_ledger
      [ "--workload"; workload; "--passes"; "1"; "--golden"; golden_dir ]
  in
  Alcotest.(check int) "exit" 0 code;
  let result = last_line out in
  Alcotest.(check bool)
    "correct" true
    (member "correct" result = Json.Bool true);
  Alcotest.(check (float 0.)) "failed" 0. (num (member "failed" result));
  Alcotest.(check bool) "attempted" true (num (member "attempted" result) >= 1.);
  List.iter
    (fun name ->
      let m = member name (member "metrics" result) in
      Alcotest.(check bool)
        (name ^ " positive") true
        (num (member "value" m) > 0.))
    [ "wall_s"; "cpu_s"; "peak_rss_mb"; "setup_s" ]

(* Flip one digit of fleet-storm's golden in a copy of the golden
   directory: the one timed invocation must count as failed. *)
let test_tampered_golden () =
  let dir = Filename.temp_dir ~temp_dir:(Sys.getcwd ()) "ledger-golden" "" in
  Array.iter
    (fun f ->
      let text = read_file (Filename.concat golden_dir f) in
      let text =
        if f = "fleet-storm.md5" then
          String.mapi
            (fun i c -> if i > 0 then c else if c = '0' then '1' else '0')
            text
        else text
      in
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
          output_string oc text))
    (Sys.readdir golden_dir);
  let code, out =
    run_ledger [ "--workload"; "fleet-storm"; "--passes"; "1"; "--golden"; dir ]
  in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  Alcotest.(check bool) "non-zero exit" true (code <> 0);
  let result = last_line out in
  Alcotest.(check (float 0.)) "failed" 1. (num (member "failed" result));
  Alcotest.(check bool)
    "not correct" true
    (member "correct" result = Json.Bool false)

let () =
  (* the paths above are this program's arguments, not Alcotest's *)
  Alcotest.run ~argv:[| Sys.argv.(0) |] "ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "names match BENCHMARK.json" `Quick
            test_names_match_benchmark_json;
          Alcotest.test_case "tampered golden fails" `Quick test_tampered_golden;
          Alcotest.test_case "regen smoke" `Quick (smoke "regen");
          Alcotest.test_case "fleet-storm smoke" `Quick (smoke "fleet-storm");
        ] );
    ]
