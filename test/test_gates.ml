(* The gates that hold the paper's numbers, the simulator's cost and its
   scale, run against the built programs:

   - replica: the ledger's in-process replicas repeat their event counts
     exactly, and allocate at most 5% more minor-heap words per event
     than recorded; the engine microbenchmarks each report a time;
   - regen golden: `run` at --jobs 1, 2 and 4, given every listed id or
     none, prints the bytes of bench/ledger/golden/regen.md5;
   - workload golden: every other golden line prints its bytes;
   - trace, explore, migrate, fleet, cluster: each command prints the
     same bytes at any --jobs, its tables parse, and the orderings the
     paper explains hold on them;
   - stat baseline: a fresh `stat micro` diffs clean against
     STAT_baseline.json, and a model with a costlier VGIC save trips
     the diff;
   - scale (`Slow`): boot storms at 4096 and 65536 VMs, a 65536-VM
     noisy neighbor and churn at 8192 VMs, each within 30 s, and the
     largest migration within 10 s, at --jobs 1 and 2. `dune runtest` runs this
     program with --quick-tests; `dune build @slow` runs the scale
     group.

   Runs ../bin/armvirt.exe and ../bench/ledger/ledger.exe, and reads
   ../bench/ledger/golden/*.md5 and ../STAT_baseline.json. *)

module Cost_model = Armvirt_arch.Cost_model
module Reg_class = Armvirt_arch.Reg_class
module Kvm_arm = Armvirt_hypervisor.Kvm_arm
module Platform = Armvirt_core.Platform
module Observe = Armvirt_core.Observe
module Stat_report = Armvirt_core.Stat_report
module Stat = Armvirt_obs.Stat
module Json = Armvirt_obs.Json
module Microbench = Armvirt_workloads.Microbench

let path parts = List.fold_left Filename.concat ".." parts
let armvirt = path [ "bin"; "armvirt.exe" ]
let ledger = path [ "bench"; "ledger"; "ledger.exe" ]
let golden_dir = path [ "bench"; "ledger"; "golden" ]
let stat_baseline = path [ "STAT_baseline.json" ]
let contains = Child.contains
let md5 s = Digest.to_hex (Digest.string s)
let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)
let read_file file = In_channel.with_open_bin file In_channel.input_all

(* stdout of an armvirt run that must exit 0 with nothing on stderr. *)
let armvirt_ok ?time_bound_s args =
  let name = String.concat " " args in
  let code, stdout, stderr = Child.run ?time_bound_s armvirt args in
  Alcotest.(check int) (name ^ " exit code") 0 code;
  Alcotest.(check string) (name ^ " stderr") "" stderr;
  stdout

(* The same bytes at --jobs 1 and 2; returns them. *)
let jobs_invariant ?time_bound_s args =
  let at jobs = armvirt_ok ?time_bound_s (args @ [ "--jobs"; jobs ]) in
  let one = at "1" in
  Alcotest.(check string)
    (String.concat " " args ^ " at --jobs 1 and 2")
    one (at "2");
  one

(* --- replica: hot-path allocation and event counts -------------------- *)

(* [key value] lines of a replica's stdout, its span lines left out. *)
let replica_values out =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | key :: value :: _ when key <> "span" -> Some (key, value)
      | _ -> None)
    (lines out)

let replica_value values key =
  match List.assoc_opt key values with
  | Some v -> float_of_string v
  | None -> Alcotest.failf "replica printed no %s" key

(* The exact minor-heap words OCAMLRUNPARAM=v=0x400 prints on exit,
   divided by the events: the replica's own gc.* figure comes from
   Gc.quick_stat, which moves only at a minor collection. *)
let replica_case (workload, events, words_per_event) =
  Alcotest.test_case workload `Quick (fun () ->
      let env =
        Array.append
          (Array.of_list
             (List.filter
                (fun v -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" v))
                (Array.to_list (Unix.environment ()))))
          [| "OCAMLRUNPARAM=v=0x400" |]
      in
      let code, out, err =
        Child.run ~env ledger [ "--replica"; workload; "--seed"; "42" ]
      in
      Alcotest.(check int) "exit code" 0 code;
      Alcotest.(check int) "events" events
        (int_of_float (replica_value (replica_values out) "events"));
      match
        List.filter_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ "minor_words:"; n ] -> Some (int_of_string n)
            | _ -> None)
          (lines err)
      with
      | [ minor ] ->
          let per_event = float_of_int minor /. float_of_int events in
          if per_event > 1.05 *. words_per_event then
            Alcotest.failf "%s: %.3f minor words per event, recorded %.3f"
              workload per_event words_per_event
      | l ->
          Alcotest.failf "%d minor_words lines on exit, want 1"
            (List.length l))

let replicas =
  [
    ("world-switch", 1_539_306, 5.216);
    ("fleet-storm", 5519, 101.513);
    ("migrate", 90_249, 24.845);
    ("cluster", 423_636, 21.217);
  ]

let test_engine_micros () =
  let code, out, _ =
    Child.run ledger [ "--replica"; "engine-micros"; "--seed"; "42" ]
  in
  Alcotest.(check int) "exit code" 0 code;
  let values = replica_values out in
  List.iter
    (fun k ->
      let key = "engine.micro." ^ k ^ "_ns" in
      Alcotest.(check bool) (key ^ " positive") true
        (replica_value values key > 0.0))
    [ "heap"; "delay"; "wake"; "resource"; "mailbox" ]

(* --- golden digests ------------------------------------------------- *)

(* The "<md5> <argv>" lines of one golden file, as (md5, argv). *)
let golden file =
  List.map
    (fun line ->
      let words = String.split_on_char ' ' line in
      (List.hd words, List.tl words))
    (lines (read_file (Filename.concat golden_dir file)))

let listed_ids () =
  let rec experiments = function
    | [] | "" :: _ -> []
    | line :: rest ->
        List.hd (String.split_on_char ' ' (String.trim line))
        :: experiments rest
  in
  match String.split_on_char '\n' (armvirt_ok [ "list" ]) with
  | _header :: lines -> experiments lines
  | [] -> []

(* Every artifact regenerates to the golden bytes, given every id
   `armvirt list` prints or none, at --jobs 4 too (more domains than
   CPUs, for more interleavings). *)
let regen_case (jobs, every_id) =
  let name =
    Printf.sprintf "run %s--jobs %s" (if every_id then "<every id> " else "")
      jobs
  in
  Alcotest.test_case name `Quick (fun () ->
      let want = fst (List.hd (golden "regen.md5")) in
      let ids = if every_id then listed_ids () else [] in
      Alcotest.(check bool) "list prints experiments" true
        ((not every_id) || ids <> []);
      Alcotest.(check string) (name ^ " stdout md5") want
        (md5 (armvirt_ok (("run" :: ids) @ [ "--jobs"; jobs ]))))

(* The ledger workloads' own invocations at benchmark size: the traced
   world-switch lines print every spend's timestamp, so these pin the
   engine's per-operation timing, run-ahead included. *)
let workload_golden_case file =
  Alcotest.test_case file `Quick (fun () ->
      List.iter
        (fun (want, args) ->
          Alcotest.(check string)
            (String.concat " " args ^ " stdout md5")
            want
            (md5 (armvirt_ok args)))
        (golden file))

let workload_goldens () =
  List.filter
    (fun f -> Filename.check_suffix f ".md5" && f <> "regen.md5")
    (List.sort compare (Array.to_list (Sys.readdir golden_dir)))

(* --- CSV tables ------------------------------------------------------ *)

(* The rows of a CSV table, each as (column, cell) pairs. No cell of the
   tables read here holds a comma or a quote. *)
let csv text =
  match List.map (String.split_on_char ',') (lines text) with
  | header :: rows ->
      List.map
        (fun row ->
          Alcotest.(check int) "cells per row" (List.length header)
            (List.length row);
          List.combine header row)
        rows
  | [] -> Alcotest.fail "empty table"

let cell row column =
  match List.assoc_opt column row with
  | Some c -> c
  | None -> Alcotest.failf "no column %S" column

let num row column =
  match float_of_string_opt (cell row column) with
  | Some x -> x
  | None -> Alcotest.failf "%s: %S is not a number" column (cell row column)

(* Each config's rows, sorted by the number in column [x]. *)
let by_config rows ~x =
  List.map
    (fun config ->
      ( config,
        List.stable_sort
          (fun a b -> Float.compare (num a x) (num b x))
          (List.filter (fun r -> cell r "config" = config) rows) ))
    (List.sort_uniq compare (List.map (fun r -> cell r "config") rows))

let rec non_decreasing = function
  | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
  | _ -> true

let last l = List.nth l (List.length l - 1)

(* --- trace, explore, migrate, fleet, cluster ---------------------------- *)

(* A chrome trace parses, table5's is the same at --jobs 1 and 4, and no
   run loses a trace event (a lost event prints a stderr warning, which
   armvirt_ok refuses). *)
let test_trace () =
  let chrome args =
    let out = armvirt_ok ([ "trace" ] @ args @ [ "--format"; "chrome" ]) in
    (match Json.parse out with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "trace %s: %s" (String.concat " " args) e);
    out
  in
  ignore (chrome [ "rr" ]);
  Alcotest.(check string) "trace table5 at --jobs 1 and 4"
    (chrome [ "table5"; "--jobs"; "1" ])
    (chrome [ "table5"; "--jobs"; "4" ]);
  ignore (armvirt_ok [ "trace"; "rr"; "--format"; "summary" ])

let explore_args =
  [ "explore"; "--space"; "vgic.save=2000:4375:625,lr_count=2|4";
    "--sampler"; "grid"; "--objective"; "hypercall"; "--objective";
    "lr-overhead" ]

(* 4 x 2 grid points: every axis and objective cell a number, the last
   column the 0/1 Pareto flag; the markdown adds the frontier table. *)
let test_explore () =
  let rows = csv (jobs_invariant (explore_args @ [ "--format"; "csv" ])) in
  Alcotest.(check int) "one row per point" 8 (List.length rows);
  List.iter
    (fun row ->
      match List.rev row with
      | ("pareto", flag) :: values ->
          Alcotest.(check bool) "pareto flag" true (flag = "0" || flag = "1");
          List.iter
            (fun (column, _) ->
              Alcotest.(check bool) (column ^ " finite") true
                (Float.is_finite (num row column)))
            values
      | _ -> Alcotest.fail "the last column is not pareto")
    rows;
  let md = armvirt_ok (explore_args @ [ "--jobs"; "2"; "--format"; "md" ]) in
  Alcotest.(check bool) "frontier section" true
    (contains md "### Pareto frontier");
  Alcotest.(check int) "point table and frontier table" 2
    (List.length
       (List.filter (String.starts_with ~prefix:"| vgic.save |") (lines md)))

(* Convergence of the default plan: split-mode KVM ARM converges, Xen
   ARM's grant path does not. Test_migrate's "downtime ordering (paper)"
   runs the same default plan for the downtime ordering. *)
let test_migrate () =
  ignore (armvirt_ok [ "migrate"; "-p"; "arm"; "-H"; "kvm" ]);
  ignore
    (armvirt_ok [ "migrate"; "-p"; "x86"; "-H"; "xen"; "--rounds-detail" ]);
  let rows =
    csv (jobs_invariant [ "migrate"; "--compare"; "--format"; "csv" ])
  in
  Alcotest.(check int) "five configs" 5 (List.length rows);
  let converged config =
    match List.find_opt (fun r -> cell r "config" = config) rows with
    | Some r -> cell r "converged"
    | None -> Alcotest.failf "no %s row" config
  in
  Alcotest.(check string) "KVM ARM converged" "true" (converged "KVM ARM");
  Alcotest.(check string) "Xen ARM converged" "false" (converged "Xen ARM")

let fleet scenario =
  csv
    (jobs_invariant
       [ "fleet"; "--scenario"; scenario; "--vms"; "16"; "--format"; "csv" ])

let test_fleet_boot_storm () =
  let rows = fleet "boot-storm" in
  Alcotest.(check int) "five configs" 5 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check string) "vms" "16" (cell r "vms");
      Alcotest.(check bool) "time to ready positive" true
        (num r "time_to_ready_ms" > 0.0))
    rows

let test_fleet_churn () =
  List.iter
    (fun r ->
      Alcotest.(check (pair string string))
        (cell r "config" ^ " admitted and retired")
        ("32", "32")
        (cell r "admitted", cell r "retired"))
    (fleet "churn")

(* The victim's p99 never falls as the fleet grows, and the largest
   fleet interferes. *)
let test_fleet_noisy () =
  let configs = by_config (fleet "noisy-neighbor") ~x:"vms" in
  Alcotest.(check int) "five configs" 5 (List.length configs);
  List.iter
    (fun (config, rows) ->
      let p99s = List.map (fun r -> num r "p99_us") rows in
      Alcotest.(check bool) (config ^ " p99 monotone in fleet size") true
        (non_decreasing p99s);
      Alcotest.(check bool) (config ^ " interference") true
        (last p99s > List.hd p99s))
    configs;
  ignore
    (armvirt_ok
       [ "fleet"; "--scenario"; "noisy-neighbor"; "--vms"; "16";
         "--profile-mix"; "memcached=1,kernbench=2"; "--format"; "md" ])

(* Every same-host pair beats every cross-host pair, which the 10 GbE
   wire bounds. Test_cluster's "vhost beats dom0 copy" compares KVM ARM's
   and Xen ARM's same-host means on this matrix. *)
let test_cluster_matrix () =
  let rows =
    csv
      (jobs_invariant
         [ "cluster"; "--scenario"; "matrix"; "--vms"; "4"; "--format"; "csv" ])
  in
  Alcotest.(check int) "5 configs x 12 ordered pairs" 60 (List.length rows);
  List.iter
    (fun (config, rows) ->
      let gbps xhost =
        List.filter_map
          (fun r ->
            if cell r "xhost" = xhost then Some (num r "gbps") else None)
          rows
      in
      let max_cross = List.fold_left Float.max 0.0 (gbps "y") in
      Alcotest.(check bool) (config ^ " same-host over cross-host") true
        (List.fold_left Float.min Float.infinity (gbps "n") > max_cross);
      Alcotest.(check bool) (config ^ " cross-host under 10 Gb/s") true
        (max_cross < 10.0))
    (by_config rows ~x:"src")

(* End to end, VHE < split-mode KVM < Xen on ARM, as in Table V's
   TCP_RR. *)
let test_cluster_chain () =
  let rows =
    csv (armvirt_ok [ "cluster"; "--scenario"; "chain"; "--format"; "csv" ])
  in
  let mean config =
    match List.find_opt (fun r -> cell r "config" = config) rows with
    | Some r -> num r "mean_us"
    | None -> Alcotest.failf "no %s row" config
  in
  Alcotest.(check bool) "VHE < KVM ARM < Xen ARM" true
    (mean "KVM ARM (VHE)" < mean "KVM ARM" && mean "KVM ARM" < mean "Xen ARM")

(* The hockey stick on every model: p99 monotone in offered load, the
   top over twice the bottom, and over a million requests/s offered at
   the top of the sweep. *)
let test_cluster_loadgen () =
  let configs =
    by_config ~x:"offered"
      (csv
         (armvirt_ok
            [ "cluster"; "--scenario"; "loadgen"; "--jobs"; "2"; "--format";
              "csv" ]))
  in
  Alcotest.(check int) "five configs" 5 (List.length configs);
  List.iter
    (fun (config, rows) ->
      let p99s = List.map (fun r -> num r "p99_us") rows in
      Alcotest.(check bool) (config ^ " p99 monotone in load") true
        (non_decreasing p99s);
      Alcotest.(check bool) (config ^ " knee") true
        (last p99s > 2.0 *. List.hd p99s);
      Alcotest.(check bool) (config ^ " over 1M req/s at the top") true
        (num (last rows) "offered_rps" > 1e6))
    configs;
  ignore
    (armvirt_ok
       [ "cluster"; "--scenario"; "loadgen"; "--topology"; "star:4"; "--vms";
         "8"; "--offered-load"; "0.4,1.1"; "--format"; "md" ])

(* --- stat baseline --------------------------------------------------- *)

(* `stat micro`'s JSON for split-mode KVM ARM with its VGIC save cost
   set to [save], built in this process the way `armvirt stat micro`
   builds it. *)
let kvm_arm_stat_json ~save =
  let arm = Cost_model.arm_default in
  let restore = (arm.Cost_model.reg Reg_class.Vgic).Cost_model.restore in
  let cost =
    Cost_model.Arm (Cost_model.with_reg_cost Reg_class.Vgic ~save ~restore arm)
  in
  Observe.enable ~trace:false ~context:"micro" ();
  Fun.protect ~finally:Observe.disable (fun () ->
      let (), captured =
        Observe.capture ~label:"micro#0.0" (fun () ->
            let machine = Platform.machine_with ~cost in
            let hyp = Kvm_arm.to_hypervisor (Kvm_arm.create machine) in
            ignore (Microbench.run ~iterations:4 hyp))
      in
      Observe.record_cells [| captured |];
      Format.asprintf "%a"
        (fun ppf acct -> Stat.render_json ~context:"micro" ppf acct)
        (Stat_report.of_session ()))

let stat_diff report =
  let file = Filename.temp_file "armvirt_gates" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc report);
      Child.run armvirt [ "stat"; "--diff"; stat_baseline; file ])

(* The committed baseline is what `stat micro` prints today, and the
   diff catches Table III's VGIC save moving 3250 -> 4000: four
   hypercalls each pay it once more. *)
let test_stat_baseline () =
  let now =
    armvirt_ok
      [ "stat"; "micro"; "-p"; "arm"; "-H"; "kvm"; "--iterations"; "4";
        "--format"; "json" ]
  in
  let code, _, _ = stat_diff now in
  Alcotest.(check int) "fresh report diffs clean" 0 code;
  let code, findings, _ = stat_diff (kvm_arm_stat_json ~save:4000) in
  Alcotest.(check int) "costlier VGIC save trips the diff" 1 code;
  Alcotest.(check bool) "names the hypercall exits' latency" true
    (contains findings "exit[hvc].latency.sum: 25936 -> 28936")

(* --- scale ------------------------------------------------------------- *)

(* Ordered runqueues boot 4096 guests in about 0.2 s, and run a
   65536-VM boot storm or noisy neighbor, or churn at 8192 VMs, in 2 to
   4 s each; a scheduler that scans its runqueue on every pick needs
   minutes for the first two and about 25 s for churn. Each config's
   row must read [vms] in every one of [columns]; a sweep prints a row
   per fleet size, and its rows at [vms] are the ones checked. *)
let fleet_at_scale ?(sweep = false) ~scenario ~vms ~columns () =
  let rows =
    csv
      (jobs_invariant ~time_bound_s:30.0
         [ "fleet"; "--scenario"; scenario; "--vms"; vms; "--format"; "csv" ])
  in
  let rows =
    if sweep then List.filter (fun r -> cell r "vms" = vms) rows else rows
  in
  Alcotest.(check int) "five configs" 5 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check (list string))
        (cell r "config" ^ " at " ^ vms)
        (List.map (fun _ -> vms) columns)
        (List.map (cell r) columns))
    rows

(* The largest plan a run admits: about 2 s with leaf-array stage-2
   tables, over 20 s with a per-page table. *)
let test_migrate_1m_pages () =
  ignore
    (jobs_invariant ~time_bound_s:10.0
       [ "migrate"; "--compare"; "--pages"; "1048576"; "--format"; "csv" ])

let () =
  Alcotest.run "gates"
    [
      ( "replica",
        List.map replica_case replicas
        @ [ Alcotest.test_case "engine-micros" `Quick test_engine_micros ] );
      ( "regen golden",
        List.concat_map
          (fun jobs -> [ regen_case (jobs, true); regen_case (jobs, false) ])
          [ "1"; "2"; "4" ] );
      ("workload golden", List.map workload_golden_case (workload_goldens ()));
      ("trace", [ Alcotest.test_case "chrome and summary" `Quick test_trace ]);
      ("explore", [ Alcotest.test_case "grid" `Quick test_explore ]);
      ("migrate", [ Alcotest.test_case "compare" `Quick test_migrate ]);
      ( "fleet",
        [
          Alcotest.test_case "boot-storm" `Quick test_fleet_boot_storm;
          Alcotest.test_case "churn" `Quick test_fleet_churn;
          Alcotest.test_case "noisy-neighbor" `Quick test_fleet_noisy;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "matrix" `Quick test_cluster_matrix;
          Alcotest.test_case "chain" `Quick test_cluster_chain;
          Alcotest.test_case "loadgen" `Quick test_cluster_loadgen;
        ] );
      ( "stat baseline",
        [ Alcotest.test_case "diff" `Quick test_stat_baseline ] );
      ( "scale",
        [
          Alcotest.test_case "boot-storm at 4096 VMs" `Slow
            (fleet_at_scale ~scenario:"boot-storm" ~vms:"4096"
               ~columns:[ "vms"; "peak_live" ]);
          Alcotest.test_case "boot-storm at 65536 VMs" `Slow
            (fleet_at_scale ~scenario:"boot-storm" ~vms:"65536"
               ~columns:[ "vms"; "peak_live" ]);
          Alcotest.test_case "noisy-neighbor at 65536 VMs" `Slow
            (fleet_at_scale ~sweep:true ~scenario:"noisy-neighbor"
               ~vms:"65536" ~columns:[ "vms" ]);
          Alcotest.test_case "churn at 8192 VMs" `Slow
            (fleet_at_scale ~scenario:"churn" ~vms:"8192"
               ~columns:[ "initial_vms" ]);
          Alcotest.test_case "migrate at 1048576 pages" `Slow
            test_migrate_1m_pages;
        ] );
    ]
