(* Tests for Armvirt_lint: per-pass positive/negative/suppressed fixtures
   (determinism R1-R7, units U1/U2, capture D1, exports S1), the JSON
   v3, CSV and text report goldens, CLI rule selection, and the
   meta-tests that the repo's own tree is lint-clean, that its report is
   a pure function of the tree, and that an added export with no caller
   is caught. *)

module Rules = Armvirt_lint.Rules
module Engine = Armvirt_lint.Engine
module Report = Armvirt_lint.Report
module Driver = Armvirt_lint.Driver

let lint ?rules ~relpath src = Engine.lint_file ?rules (Engine.parse ~relpath src)

let rule_ids (r : Engine.result) =
  List.map (fun (f : Engine.finding) -> Rules.to_string f.rule) r.findings

let check_rules name expected r =
  Alcotest.(check (list string)) name expected (rule_ids r)

(* --- R1: stdlib Random --------------------------------------------- *)

let test_r1_random () =
  check_rules "flagged" [ "R1" ]
    (lint ~relpath:"lib/workloads/x.ml" "let x = Random.int 7");
  check_rules "deep path flagged" [ "R1" ]
    (lint ~relpath:"lib/workloads/x.ml" "let s = Random.State.make [| 3 |]");
  check_rules "module alias flagged" [ "R1" ]
    (lint ~relpath:"lib/workloads/x.ml" "module R = Random");
  check_rules "allowlisted in rng.ml" []
    (lint ~relpath:"lib/engine/rng.ml" "let x = Random.int 7");
  check_rules "Engine.Rng is fine" []
    (lint ~relpath:"lib/workloads/x.ml" "let x r = Engine.Rng.int r 7")

(* --- R2: wall clock ------------------------------------------------- *)

let test_r2_wall_clock () =
  check_rules "gettimeofday flagged" [ "R2" ]
    (lint ~relpath:"lib/core/x.ml" "let now () = Unix.gettimeofday ()");
  check_rules "Sys.time flagged" [ "R2" ]
    (lint ~relpath:"lib/core/x.ml" "let t () = Sys.time ()");
  (* self_init is both entropy (R2) and stdlib Random (R1) *)
  check_rules "self_init double-flagged" [ "R1"; "R2" ]
    (lint ~relpath:"lib/core/x.ml" "let () = Random.self_init ()");
  check_rules "bench may use wall clock" []
    (lint ~relpath:"bench/main.ml" "let now () = Unix.gettimeofday ()")

(* --- R3: Hashtbl iteration order ------------------------------------ *)

let test_r3_hashtbl_order () =
  check_rules "bare iter flagged" [ "R3" ]
    (lint ~relpath:"lib/io/x.ml" "let dump t f = Hashtbl.iter f t");
  check_rules "fold into sort accepted" []
    (lint ~relpath:"lib/io/x.ml"
       "let keys t =\n\
       \  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort \
        Int.compare");
  check_rules "sort elsewhere in same definition accepted" []
    (lint ~relpath:"lib/io/x.ml"
       "let keys t =\n\
       \  let raw = Hashtbl.fold (fun k _ acc -> k :: acc) t [] in\n\
       \  List.sort_uniq Int.compare raw");
  let suppressed =
    lint ~relpath:"lib/io/x.ml"
      "let count t =\n\
       \  (* lint: sorted *)\n\
       \  Hashtbl.fold (fun _ _ acc -> acc + 1) t 0"
  in
  check_rules "audited site suppressed" [] suppressed;
  Alcotest.(check int) "counted as suppressed" 1 suppressed.Engine.suppressed

(* --- R4: Domain outside the runner ----------------------------------- *)

let test_r4_domain () =
  check_rules "spawn flagged" [ "R4" ]
    (lint ~relpath:"lib/explore/x.ml" "let d f = Domain.spawn f");
  check_rules "join flagged" [ "R4" ]
    (lint ~relpath:"lib/explore/x.ml" "let j d = Domain.join d");
  check_rules "runner.ml allowlisted" []
    (lint ~relpath:"lib/core/runner.ml" "let d f = Domain.spawn f");
  check_rules "DLS is fine" []
    (lint ~relpath:"lib/explore/x.ml"
       "let k = Domain.DLS.new_key (fun () -> 0)")

(* --- R5: polymorphic compare --------------------------------------- *)

let test_r5_poly_compare () =
  check_rules "bare compare flagged" [ "R5" ]
    (lint ~relpath:"lib/engine/x.ml" "let c (a : float) b = compare a b");
  check_rules "Stdlib.compare flagged" [ "R5" ]
    (lint ~relpath:"lib/stats/x.ml" "let s l = List.sort Stdlib.compare l");
  check_rules "float-literal equality flagged" [ "R5" ]
    (lint ~relpath:"lib/stats/x.ml" "let z x = x = 0.0");
  check_rules "lambda equality flagged" [ "R5" ]
    (lint ~relpath:"lib/engine/x.ml" "let bad f = f = fun x -> x");
  check_rules "Float.compare is fine" []
    (lint ~relpath:"lib/engine/x.ml" "let c a b = Float.compare a b");
  check_rules "out of scope dirs unflagged" []
    (lint ~relpath:"lib/mem/x.ml" "let z x = x = 0.0")

(* --- R6: top-level mutable state ------------------------------------ *)

let test_r6_top_level_state () =
  check_rules "top-level Hashtbl flagged" [ "R6" ]
    (lint ~relpath:"lib/gic/x.ml" "let cache = Hashtbl.create 16");
  check_rules "top-level ref flagged" [ "R6" ]
    (lint ~relpath:"lib/gic/x.ml" "let hits = ref 0");
  check_rules "constrained ref flagged" [ "R6" ]
    (lint ~relpath:"lib/gic/x.ml" "let h : int list ref = ref []");
  check_rules "function allocating per call is fine" []
    (lint ~relpath:"lib/gic/x.ml" "let create () = Hashtbl.create 16");
  check_rules "metrics registry allowlisted" []
    (lint ~relpath:"lib/obs/metrics.ml" "let reg = Hashtbl.create 16");
  check_rules "audited global suppressed" []
    (lint ~relpath:"lib/gic/x.ml"
       "(* lint: allow R6 process-wide hook slot *)\nlet hook = ref None")

(* --- R7: printing from lib/ ------------------------------------------ *)

let test_r7_printing () =
  check_rules "print_endline flagged" [ "R7" ]
    (lint ~relpath:"lib/core/x.ml" {|let f () = print_endline "hi"|});
  check_rules "Printf.printf flagged" [ "R7" ]
    (lint ~relpath:"lib/core/x.ml" {|let g n = Printf.printf "%d" n|});
  check_rules "fprintf on a caller formatter is fine" []
    (lint ~relpath:"lib/core/x.ml" {|let h ppf = Format.fprintf ppf "x"|});
  check_rules "bin/ may print" []
    (lint ~relpath:"bin/armvirt.ml" {|let f () = print_endline "hi"|})

(* --- U1: incompatible units ------------------------------------------ *)

let test_u1_incompatible_units () =
  check_rules "additive mix flagged" [ "U1" ]
    (lint ~relpath:"lib/net/x.ml"
       "let mix link_gbps cost_cycles = link_gbps + cost_cycles");
  check_rules "comparison mix flagged" [ "U1" ]
    (lint ~relpath:"lib/migrate/x.ml" "let f a_us b_cycles = a_us < b_cycles");
  check_rules "binding mix flagged" [ "U1" ]
    (lint ~relpath:"lib/migrate/x.ml"
       "let f x_us = let y_cycles = x_us in y_cycles");
  check_rules "record field mix flagged" [ "U1" ]
    (lint ~relpath:"lib/net/x.ml"
       "let f wire_gbps = { Profile.budget_cycles = wire_gbps }");
  check_rules "labelled argument mix flagged" [ "U1" ]
    (lint ~relpath:"lib/net/x.ml" "let f g len_kb = g ~bytes:len_kb");
  check_rules "converter payload mix flagged" [ "U1" ]
    (lint ~relpath:"lib/migrate/x.ml" "let f x_bytes = Cycles.of_us x_bytes");
  check_rules "field access carries its unit" [ "U1" ]
    (lint ~relpath:"lib/net/x.ml"
       "let f t budget_cycles = t.Plan.bandwidth_gbps + budget_cycles");
  check_rules "same unit is fine" []
    (lint ~relpath:"lib/net/x.ml" "let f a_us b_us = a_us +. b_us");
  check_rules "converter used correctly is fine" []
    (lint ~relpath:"lib/migrate/x.ml"
       "let f x_us = let y_cycles = Cycles.of_us x_us in y_cycles");
  check_rules "named gbps converter is fine" []
    (lint ~relpath:"lib/net/x.ml"
       "let f link_gbps =\n\
       \  let wire_cycles = cycles_of_gbps link_gbps in\n\
       \  wire_cycles");
  check_rules "rates stay untracked" []
    (lint ~relpath:"lib/net/x.ml"
       "let f total_cycles cycles_per_byte = total_cycles + cycles_per_byte");
  check_rules "multiplication changes dimension, untracked" []
    (lint ~relpath:"lib/net/x.ml"
       "let f n_bytes rate_gbps = let x = n_bytes * 8 in x + (n_bytes * 2)");
  check_rules "out of lib/ unflagged" []
    (lint ~relpath:"bin/x.ml" "let mix a_gbps b_cycles = a_gbps + b_cycles")

let test_u1_suppressed () =
  let r =
    lint ~relpath:"lib/net/x.ml"
      "let f a_us b_cycles =\n\
       \  (* lint: unit us checked reinterpretation *)\n\
       \  a_us + b_cycles"
  in
  check_rules "audited unit site suppressed" [] r;
  Alcotest.(check int) "counted as suppressed" 1 r.Engine.suppressed

(* --- U2: unit-less literals ------------------------------------------ *)

let test_u2_literals () =
  check_rules "literal added to us flagged" [ "U2" ]
    (lint ~relpath:"lib/migrate/x.ml" "let f t_us = t_us +. 3.0");
  check_rules "literal compared with gbps flagged" [ "U2" ]
    (lint ~relpath:"lib/net/x.ml" "let f rate_gbps = rate_gbps < 9.0");
  check_rules "zero is unit-polymorphic" []
    (lint ~relpath:"lib/net/x.ml" "let f rate_gbps = rate_gbps > 0.0");
  check_rules "one is the counting idiom" []
    (lint ~relpath:"lib/mem/x.ml" "let f n_bytes = n_bytes + 1");
  check_rules "minus one exempt" []
    (lint ~relpath:"lib/mem/x.ml"
       "let f n_bytes page_bytes = (n_bytes + page_bytes - 1) / page_bytes");
  check_rules "literal at unit-suffixed declaration is the entry point" []
    (lint ~relpath:"lib/migrate/x.ml" "let timeout_us = 250.0");
  check_rules "literal through a named converter is sanctioned" []
    (lint ~relpath:"lib/migrate/x.ml" "let f hz = Cycles.of_us ~hz 2.0")

(* --- D1: cross-domain capture ---------------------------------------- *)

let test_d1_capture () =
  check_rules "captured toplevel ref flagged" [ "R6"; "D1" ]
    (lint ~relpath:"lib/explore/x.ml"
       "let tally = ref 0\nlet fan xs = Runner.map (fun x -> tally := x) xs");
  check_rules "audited R6 global still races under fan-out" [ "D1" ]
    (lint ~relpath:"lib/explore/x.ml"
       "(* lint: allow R6 hook slot *)\n\
        let hook = ref None\n\
        let fan xs = Runner.map (fun x -> hook := Some x; x) xs");
  check_rules "unreferenced toplevel state is R6's business only" [ "R6" ]
    (lint ~relpath:"lib/explore/x.ml"
       "let tally = ref 0\nlet fan xs = Runner.map (fun x -> x + 1) xs");
  check_rules "closure-local ref is fine" []
    (lint ~relpath:"lib/explore/x.ml"
       "let fan xs = Runner.map (fun x -> let acc = ref x in !acc) xs");
  check_rules "registry modules exempt by scoping" []
    (lint ~rules:[ Rules.D1 ] ~relpath:"lib/obs/metrics.ml"
       "let reg = Hashtbl.create 16\n\
        let fan xs = Runner.map (fun x -> Hashtbl.hash reg + x) xs")

(* --- S1: every export has a caller ------------------------------------ *)

let exports sources =
  Engine.lint_exports
    (List.map (fun (relpath, text) -> Engine.parse ~relpath text) sources)

let counter_mli =
  ("lib/demo/counter.mli", "val incr : int -> int\n\nval dead : int -> int\n")

(* Each case pairs [counter_mli] with one caller file; [[]] means both
   vals count as called. *)
let s1_cases =
  [
    ( "an uncalled export is one finding",
      [ ("bin/main.ml", "let () = ignore (Counter.incr 1)") ],
      [ "S1" ] );
    ( "its own implementation is no caller",
      [
        ("lib/demo/counter.ml", "let dead x = x\nlet incr = dead");
        ("bin/main.ml", "let () = ignore (Counter.incr 1)");
      ],
      [ "S1" ] );
    ( "a call through the module name",
      [ ("bin/main.ml", "let _ = Armvirt_demo.Counter.incr (Counter.dead 0)") ],
      [] );
    ( "a call through an alias",
      [ ("test/t.ml", "module C = Armvirt_demo.Counter\nlet _ = C.incr (C.dead 0)") ],
      [] );
    ( "a call through a let module",
      [
        ( "test/t.ml",
          "let f () =\n\
          \  let module C = Counter in\n\
          \  C.incr (C.dead 0)" );
      ],
      [] );
    ( "a call through an alias of an alias",
      [
        ( "bench/b.ml",
          "module C = Counter\nmodule D = C\nlet _ = D.incr (D.dead 0)" );
      ],
      [] );
    ( "a call through an open",
      [ ("examples/e.ml", "open Armvirt_demo.Counter\nlet _ = incr (dead 0)") ],
      [] );
    ( "a call through a let open",
      [ ("test/t.ml", "let f () = let open Counter in incr (dead 0)") ],
      [] );
    ( "a call through a local open",
      [ ("bench/b.ml", "let _ = Counter.(incr (dead 0))") ],
      [] );
    ( "a call through an include",
      [ ("lib/demo/more.ml", "include Counter\nlet _ = incr (dead 0)") ],
      [] );
    ( "a call through a functor parameter",
      [
        ( "test/t.ml",
          "module F (C : S) = struct let _ = C.incr (C.dead 0) end\n\
           module G = F (Counter)" );
      ],
      [] );
    ( "a bare name without an open is no call",
      [ ("bin/main.ml", "let dead = succ\nlet _ = Counter.incr (dead 0)") ],
      [ "S1" ] );
    ( "a same-named module shares its callers",
      [ ("bin/main.ml", "let _ = Other.Counter.incr (Other.Counter.dead 0)") ],
      [] );
  ]

let s1_case (name, callers, expected) =
  Alcotest.test_case name `Quick (fun () ->
      check_rules name expected (exports (counter_mli :: callers)))

let test_s1_finding_position () =
  let r =
    exports [ counter_mli; ("bin/main.ml", "let () = ignore (Counter.incr 1)") ]
  in
  match r.findings with
  | [ f ] ->
      Alcotest.(check (pair string int))
        "on the val's line" ("lib/demo/counter.mli", 3) (f.file, f.line);
      Alcotest.(check string) "names the value and its unit"
        "Counter.dead is exported but nothing outside counter.ml calls it: \
         delete it, or drop it from the interface"
        f.message
  | fs -> Alcotest.failf "expected one S1 finding, got %d" (List.length fs)

let test_s1_allow_comment () =
  let allowed =
    exports
      [
        ( "lib/demo/counter.mli",
          "val incr : int -> int\n\n\
           (* lint: allow S1 kept for the toplevel *)\n\
           val dead : int -> int\n" );
        ("bin/main.ml", "let () = ignore (Counter.incr 1)");
      ]
  in
  check_rules "a lint: allow comment suppresses it" [] allowed;
  Alcotest.(check int) "counted as suppressed" 1 allowed.Engine.suppressed

let test_s1_nested_module () =
  let uncalled =
    exports
      [
        ( "lib/demo/sim.mli",
          "module Mailbox : sig\n  val send : int -> unit\n  val try_recv : int -> int\nend\n" );
        ("bin/main.ml", "let () = Sim.Mailbox.send 1");
      ]
  in
  check_rules "nested module vals are exports" [ "S1" ] uncalled;
  Alcotest.(check (list string)) "named by their full path"
    [ "Sim.Mailbox.try_recv" ]
    (List.map
       (fun (f : Engine.finding) ->
         List.hd (String.split_on_char ' ' f.message))
       uncalled.findings)

let test_s1_only_lib_interfaces () =
  (* Interfaces outside lib/ (a test oracle's, an executable's) declare
     no exports the rule checks. *)
  check_rules "bin/ and test/ interfaces are not checked" []
    (exports
       [
         ("test/reference_demo.mli", "val unused : int\n");
         ("bin/tool.mli", "val unused : int\n");
       ])

(* --- suppression and selection mechanics ----------------------------- *)

let test_file_wide_disable () =
  check_rules "file-wide disable" []
    (lint ~relpath:"lib/core/x.ml"
       "(* lint: disable R7 *)\nlet f () = print_endline \"hi\"");
  check_rules "disable only silences listed rules" [ "R1" ]
    (lint ~relpath:"lib/core/x.ml"
       "(* lint: disable R7 *)\nlet f () = Random.bits ()")

let test_site_directive_reach () =
  (* A site directive covers its own line and the one below, no more. *)
  let src directive_line =
    String.concat "\n"
      (List.init 4 (fun i ->
           if i = directive_line then "(* lint: allow R1 seeded elsewhere *)"
           else "let () = ()")
      @ [ "let x = Random.int 7" ])
  in
  check_rules "trailing on the same line" []
    (lint ~relpath:"lib/core/x.ml"
       "let x = Random.int 7 (* lint: allow R1 seeded elsewhere *)");
  check_rules "on the line above" [] (lint ~relpath:"lib/core/x.ml" (src 3));
  check_rules "two lines above is too far" [ "R1" ]
    (lint ~relpath:"lib/core/x.ml" (src 2));
  check_rules "only the named rule" [ "R1" ]
    (lint ~relpath:"lib/core/x.ml"
       "let x = Random.int 7 (* lint: allow R2 wrong rule *)")

(* A directive is a comment: the same marker inside a string literal is
   text, whether file-wide or at the site. *)
let test_marker_in_string () =
  check_rules "file-wide marker in a string" [ "R2" ]
    (lint ~relpath:"lib/core/x.ml"
       "let help = \"(* lint: disable R2 *)\"\nlet now () = Sys.time ()");
  check_rules "site marker in a string" [ "R1" ]
    (lint ~relpath:"lib/core/x.ml"
       "let x = (Random.int 7, \"(* lint: allow R1 seeded *)\")");
  check_rules "the same marker as a comment" []
    (lint ~relpath:"lib/core/x.ml"
       "(* lint: disable R2 *)\nlet now () = Sys.time ()");
  check_rules "a multi-line directive counts from its first line" []
    (lint ~relpath:"lib/core/x.ml"
       "let x = Random.int 7 (* lint: allow R1 seeded\n   elsewhere *)")

let test_rule_selection () =
  let src = "let f () = print_endline (string_of_int (Random.bits ()))" in
  (* same line: ordered by column, print_endline first *)
  check_rules "all rules" [ "R7"; "R1" ] (lint ~relpath:"lib/core/x.ml" src);
  check_rules "only R1"
    [ "R1" ]
    (lint ~rules:[ Rules.R1 ] ~relpath:"lib/core/x.ml" src);
  check_rules "only R7"
    [ "R7" ]
    (lint ~rules:[ Rules.R7 ] ~relpath:"lib/core/x.ml" src)

let test_findings_sorted () =
  let r =
    lint ~relpath:"lib/core/x.ml"
      "let a () = print_endline \"x\"\n\
       let b = ref 0\n\
       let c () = Random.bits ()"
  in
  check_rules "sorted by line" [ "R7"; "R6"; "R1" ] r

let test_parse_error () =
  Alcotest.check_raises "syntax error raises"
    (Engine.Parse_error "lib/core/x.ml: Syntaxerr.Error(_)")
    (fun () ->
      try ignore (lint ~relpath:"lib/core/x.ml" "let let let")
      with Engine.Parse_error _ ->
        raise (Engine.Parse_error "lib/core/x.ml: Syntaxerr.Error(_)"))

(* --- pass registration ------------------------------------------------ *)

let test_pass_registration () =
  Alcotest.(check (list string))
    "registration order" [ "determinism"; "units"; "capture"; "exports" ]
    (List.map fst Engine.passes);
  Alcotest.(check string) "U1 owned by units" "units" (Engine.pass_of_rule Rules.U1);
  Alcotest.(check string) "D1 owned by capture" "capture"
    (Engine.pass_of_rule Rules.D1);
  Alcotest.(check string) "S1 owned by the whole-tree pass" "exports"
    (Engine.pass_of_rule Rules.S1);
  Alcotest.(check string) "R3 owned by determinism" "determinism"
    (Engine.pass_of_rule Rules.R3);
  (* every rule has a long-form rationale for --explain *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "explain %s nonempty" (Rules.to_string r))
        true
        (String.length (Rules.explain r) > 80))
    Rules.all

let test_pass_scoping () =
  (* One violation for each per-file pass: under lib/ all three passes
     report, under bench/ path scoping leaves determinism alone. *)
  let src =
    "let jitter () = Random.int 100\n\
     let mix link_gbps cost_cycles = link_gbps + cost_cycles\n\
     let tally = ref 0\n\
     let fan xs = Runner.map (fun x -> tally := x) xs"
  in
  let passes relpath =
    List.sort_uniq String.compare
      (List.map
         (fun (f : Engine.finding) -> Engine.pass_of_rule f.rule)
         (lint ~relpath src).Engine.findings)
  in
  Alcotest.(check (list string))
    "every pass reports in lib/" [ "capture"; "determinism"; "units" ]
    (passes "lib/hypervisor/x.ml");
  Alcotest.(check (list string))
    "bench scoping skips unit/capture passes" [ "determinism" ]
    (passes "bench/x.ml")

(* --- report formats --------------------------------------------------- *)

let finding rule file line =
  { Engine.rule; file; line; col = 0; message = "m" }

let fixture_report () =
  let src =
    "let seed () = Random.int 7\nlet now () = Unix.gettimeofday ()\n"
  in
  let r = lint ~relpath:"lib/demo/fixture.ml" src in
  {
    Report.root = ".";
    files_scanned = 1;
    suppressed = r.Engine.suppressed;
    findings = r.Engine.findings;
  }

let golden_json =
  {|{
  "version": 3,
  "root": ".",
  "files_scanned": 1,
  "suppressed": 0,
  "passes": [
    { "name": "determinism", "rules": ["R1", "R2", "R3", "R4", "R5", "R6", "R7"], "findings": 2 },
    { "name": "units", "rules": ["U1", "U2"], "findings": 0 },
    { "name": "capture", "rules": ["D1"], "findings": 0 },
    { "name": "exports", "rules": ["S1"], "findings": 0 }
  ],
  "findings": [
    { "file": "lib/demo/fixture.ml", "line": 1, "col": 14, "rule": "R1", "pass": "determinism", "severity": "error", "message": "use of Random.int: all randomness must flow through seeded Engine.Rng", "hint": "draw through a seeded Engine.Rng stream (Rng.split per consumer)" },
    { "file": "lib/demo/fixture.ml", "line": 2, "col": 13, "rule": "R2", "pass": "determinism", "severity": "error", "message": "wall-clock/process-entropy call Unix.gettimeofday breaks run-to-run reproducibility", "hint": "simulated time comes from Engine.Cycles/Sim.now; host wall-clock belongs in bench/ only" }
  ]
}
|}

let golden_csv =
  "file,line,col,rule,severity,message\n\
   lib/demo/fixture.ml,1,14,R1,error,use of Random.int: all randomness \
   must flow through seeded Engine.Rng\n\
   lib/demo/fixture.ml,2,13,R2,error,wall-clock/process-entropy call \
   Unix.gettimeofday breaks run-to-run reproducibility\n"

let golden_text =
  "lib/demo/fixture.ml:1:14: error[R1] use of Random.int: all randomness \
   must flow through seeded Engine.Rng\n\
  \  hint: draw through a seeded Engine.Rng stream (Rng.split per \
   consumer)\n\
   lib/demo/fixture.ml:2:13: error[R2] wall-clock/process-entropy call \
   Unix.gettimeofday breaks run-to-run reproducibility\n\
  \  hint: simulated time comes from Engine.Cycles/Sim.now; host \
   wall-clock belongs in bench/ only\n\
   armvirt lint: 1 files scanned, 2 findings (0 suppressed)\n\
  \  pass determinism    2 findings\n\
  \  pass units          0 findings\n\
  \  pass capture        0 findings\n\
  \  pass exports        0 findings\n"

let test_json_golden () =
  Alcotest.(check string)
    "json golden" golden_json
    (Report.render Report.Json (fixture_report ()))

let test_csv_and_text () =
  let report = fixture_report () in
  Alcotest.(check string)
    "csv golden" golden_csv
    (Report.render Report.Csv report);
  Alcotest.(check string)
    "text golden" golden_text
    (Report.render Report.Text report)

(* RFC 4180: a CR inside a field must be quoted like an LF, or the row
   splits on readers that treat "\r\n" as the record separator. *)
let test_csv_crlf_field () =
  let f line message = { (finding Rules.R6 "lib/a.ml" line) with message } in
  let csv =
    Report.render Report.Csv
      {
        Report.root = ".";
        files_scanned = 1;
        suppressed = 0;
        findings = [ f 3 "first\r\nsecond"; f 4 "bare\rCR" ];
      }
  in
  Alcotest.(check string)
    "one quoted field each"
    "file,line,col,rule,severity,message\n\
     lib/a.ml,3,0,R6,warning,\"first\r\nsecond\"\n\
     lib/a.ml,4,0,R6,warning,\"bare\rCR\"\n"
    csv

let test_render_deterministic () =
  let a = Report.render Report.Json (fixture_report ()) in
  let b = Report.render Report.Json (fixture_report ()) in
  Alcotest.(check string) "byte-identical" a b

(* --- the meta-tests: this repo is lint-clean at HEAD ------------------ *)

let test_repo_is_lint_clean () =
  let root = Driver.find_root () in
  let files = Driver.scan_files ~root in
  Alcotest.(check bool)
    (Printf.sprintf "scans a real tree (%d files)" (List.length files))
    true
    (List.length files > 100);
  let report = Driver.lint_tree ~root () in
  List.iter
    (fun (f : Engine.finding) ->
      Printf.eprintf "unexpected finding: %s:%d [%s] %s\n%!" f.file f.line
        (Rules.to_string f.rule) f.message)
    report.Report.findings;
  Alcotest.(check int) "zero unsuppressed findings" 0
    (List.length report.Report.findings);
  Alcotest.(check bool)
    "audited sites are marked, not silently dropped" true
    (report.Report.suppressed > 0)

let repo_sources () =
  let root = Driver.find_root () in
  let read relpath =
    In_channel.with_open_bin (Filename.concat root relpath) In_channel.input_all
  in
  List.map (fun relpath -> (relpath, read relpath)) (Driver.scan_files ~root)

let test_repo_exports_all_called () =
  (* Every val of lib/**/*.mli has a caller today. *)
  check_rules "no uncalled export" [] (exports (repo_sources ()))

let test_repo_catches_uncalled_export () =
  (* One more export nothing calls is exactly one S1 finding. *)
  let injected =
    List.map
      (fun (relpath, src) ->
        if relpath = "lib/arch/machine.mli" then
          (relpath, src ^ "\nval injected_dead : t -> unit\n")
        else (relpath, src))
      (repo_sources ())
  in
  match (exports injected).Engine.findings with
  | [ f ] ->
      Alcotest.(check string) "the injected export" "lib/arch/machine.mli" f.file;
      Alcotest.(check bool) "named in the message" true
        (String.length f.message > 22
        && String.sub f.message 0 22 = "Machine.injected_dead ")
  | fs -> Alcotest.failf "expected one S1 finding, got %d" (List.length fs)

(* Two runs over the same tree render the same bytes in every format:
   nothing in a report reads the host's clock or state. *)
let test_report_is_pure () =
  let root = Driver.find_root () in
  let a = Driver.lint_tree ~root () and b = Driver.lint_tree ~root () in
  List.iter
    (fun (name, format) ->
      Alcotest.(check string) name
        (Report.render format a) (Report.render format b))
    [ ("text", Report.Text); ("csv", Report.Csv); ("json", Report.Json) ]

let test_repo_gate_catches_injection () =
  (* The invariant CI relies on: were a forbidden call, a mixed-unit
     expression or a cross-domain capture introduced in a scanned
     module, the same gate that is clean today would fail. *)
  let root = Driver.find_root () in
  let clean = Driver.lint_tree ~root () in
  let seeded =
    lint ~relpath:"lib/hypervisor/kvm_arm.ml"
      "let jitter () = Random.int 100\n\
       let d f = Domain.spawn f\n\
       let mix link_gbps cost_cycles = link_gbps + cost_cycles\n\
       let tally = ref 0\n\
       let fan xs = Runner.map (fun x -> tally := x) xs"
  in
  Alcotest.(check (list string))
    "injected violations caught across all three passes"
    [ "R1"; "R4"; "U1"; "R6"; "D1" ]
    (rule_ids seeded);
  Alcotest.(check int) "today's tree has no finding" 0
    (List.length clean.Report.findings)

(* dune writes an empty interface for each executable into _build: a
   tree holding such a stub scans the same files as one without, and a
   real interface next to it still counts. *)
let test_scan_skips_dune_stubs () =
  let root = Filename.temp_dir "armvirt_lint" "" in
  let write relpath contents =
    let path = Filename.concat root relpath in
    if not (Sys.file_exists (Filename.dirname path)) then
      Sys.mkdir (Filename.dirname path) 0o755;
    Out_channel.with_open_bin path (fun oc -> output_string oc contents)
  in
  write "lib/a.ml" "let x = 1\n";
  write "lib/a.mli" "val x : int\n";
  write "bin/main.ml" "let () = ignore A.x\n";
  let without = Driver.scan_files ~root in
  write "bin/main.mli" "(* Auto-generated by Dune *)";
  let with_stub = Driver.scan_files ~root in
  write "bin/tool.mli" "(* Not generated *)\nval run : unit -> unit\n";
  let with_interface = Driver.scan_files ~root in
  List.iter
    (fun rel -> Sys.remove (Filename.concat root rel))
    [ "lib/a.ml"; "lib/a.mli"; "bin/main.ml"; "bin/main.mli"; "bin/tool.mli" ];
  List.iter (fun d -> Sys.rmdir (Filename.concat root d)) [ "lib"; "bin"; "" ];
  Alcotest.(check (list string)) "the stub is not scanned" without with_stub;
  Alcotest.(check int) "a written interface is" (List.length without + 1)
    (List.length with_interface)

let () =
  Alcotest.run "lint"
    [
      ( "determinism",
        [
          Alcotest.test_case "R1 random" `Quick test_r1_random;
          Alcotest.test_case "R2 wall clock" `Quick test_r2_wall_clock;
          Alcotest.test_case "R3 hashtbl order" `Quick test_r3_hashtbl_order;
          Alcotest.test_case "R4 domain" `Quick test_r4_domain;
          Alcotest.test_case "R5 poly compare" `Quick test_r5_poly_compare;
          Alcotest.test_case "R6 top-level state" `Quick
            test_r6_top_level_state;
          Alcotest.test_case "R7 printing" `Quick test_r7_printing;
        ] );
      ( "units",
        [
          Alcotest.test_case "U1 incompatible units" `Quick
            test_u1_incompatible_units;
          Alcotest.test_case "U1 suppressed" `Quick test_u1_suppressed;
          Alcotest.test_case "U2 literals" `Quick test_u2_literals;
        ] );
      ( "capture",
        [ Alcotest.test_case "D1 capture" `Quick test_d1_capture ] );
      ( "exports",
        List.map s1_case s1_cases
        @ [
            Alcotest.test_case "finding position and message" `Quick
              test_s1_finding_position;
            Alcotest.test_case "lint: allow suppresses" `Quick
              test_s1_allow_comment;
            Alcotest.test_case "nested module vals" `Quick test_s1_nested_module;
            Alcotest.test_case "only lib/ interfaces" `Quick
              test_s1_only_lib_interfaces;
          ] );
      ( "mechanics",
        [
          Alcotest.test_case "file-wide disable" `Quick test_file_wide_disable;
          Alcotest.test_case "site directive reach" `Quick
            test_site_directive_reach;
          Alcotest.test_case "marker in a string" `Quick test_marker_in_string;
          Alcotest.test_case "rule selection" `Quick test_rule_selection;
          Alcotest.test_case "findings sorted" `Quick test_findings_sorted;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "pass registration" `Quick test_pass_registration;
          Alcotest.test_case "pass scoping" `Quick test_pass_scoping;
          Alcotest.test_case "scan skips dune stubs" `Quick
            test_scan_skips_dune_stubs;
        ] );
      ( "report",
        [
          Alcotest.test_case "json v3 golden" `Quick test_json_golden;
          Alcotest.test_case "csv and text" `Quick test_csv_and_text;
          Alcotest.test_case "csv CRLF field" `Quick test_csv_crlf_field;
          Alcotest.test_case "render deterministic" `Quick
            test_render_deterministic;
        ] );
      ( "meta",
        [
          Alcotest.test_case "repo is lint-clean" `Quick
            test_repo_is_lint_clean;
          Alcotest.test_case "every export is called" `Quick
            test_repo_exports_all_called;
          Alcotest.test_case "gate catches an uncalled export" `Quick
            test_repo_catches_uncalled_export;
          Alcotest.test_case "reports are a pure function of the tree" `Quick
            test_report_is_pure;
          Alcotest.test_case "gate catches injected violations" `Quick
            test_repo_gate_catches_injection;
        ] );
    ]
