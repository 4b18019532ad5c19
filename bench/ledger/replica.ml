(* In-process replicas of the ledger's workloads, for the traced run. Each
   runs as `ledger.exe --replica NAME --seed N` in a process of its own, so
   its GC counters and peak heap are its own. Replicas call only the public
   entry points README.md lists, so later rewrites inside lib/ need no edit
   here. A replica prints "span <layer> <start> <stop> <name>" for every
   call it times and "<key> <value>" for each number it measures. *)

module Platform = Armvirt_core.Platform
module Machine = Armvirt_arch.Machine
module Sim = Armvirt_engine.Sim
module Hypervisor = Armvirt_hypervisor.Hypervisor
module W = Armvirt_workloads
module Fleet = Armvirt_fleet
module Plan = Armvirt_migrate.Plan
module Bench_events = Armvirt_bench_events.Bench_events

(* Workload.configs as platform values, named for metric suffixes. *)
let configs =
  List.map
    (fun ((_, _, p, id) as c) -> (Workload.config_name c, p, id))
    Workload.configs

(* Replicas of the CLI workloads that simulate: each reports engine events,
   host seconds and GC words per event. *)
let simulated = [ "world-switch"; "fleet-storm"; "migrate"; "cluster" ]
let names = simulated @ [ "fleet-scaling"; "engine-micros"; "platform" ]

let micros =
  [
    ("heap", Bench_events.bench_heap_churn);
    ("delay", Bench_events.bench_delay_churn);
    ("wake", Bench_events.bench_suspend_wake);
    ("resource", Bench_events.bench_resource);
    ("mailbox", Bench_events.bench_mailbox);
  ]

(* Guests per boot storm for the fleet scaling curve. *)
let fleet_sizes = [ 256; 512; 1024 ]
let construct_samples = 21

let emit key value = Printf.printf "%s %s\n" key (Json.num value)

let timed ~layer name f =
  let start = Unix.gettimeofday () in
  let v = f () in
  let stop = Unix.gettimeofday () in
  Printf.printf "span %s %.6f %.6f %s\n" layer start stop name;
  (v, stop -. start)

(* Host seconds and engine events of [run] on a fresh hypervisor. Building
   the hypervisor is its own span, not simulation. *)
let simulate ~layer name (config, p, id) run =
  let hyp, _ =
    timed ~layer:"platform" ("Platform.hypervisor " ^ config) (fun () ->
        Platform.hypervisor p id)
  in
  let sim = Machine.sim hyp.Hypervisor.machine in
  let before = Sim.events_processed sim in
  let v, seconds = timed ~layer (name ^ " " ^ config) (fun () -> run hyp) in
  (v, Sim.events_processed sim - before, seconds)

let over_configs ~layer name run =
  List.fold_left
    (fun (vs, events, seconds) c ->
      let v, e, s = simulate ~layer name c run in
      (v :: vs, events + e, seconds +. s))
    ([], 0, 0.) configs

let with_gc name f =
  let g0 = Gc.quick_stat () in
  let events, seconds = f () in
  let g1 = Gc.quick_stat () in
  let per_event words = words /. float_of_int events in
  emit "events" (float_of_int events);
  emit "seconds" seconds;
  emit ("gc.minor_words_per_event." ^ name)
    (per_event (g1.Gc.minor_words -. g0.Gc.minor_words));
  emit ("gc.major_words_per_event." ^ name)
    (per_event (g1.Gc.major_words -. g0.Gc.major_words));
  emit ("gc.top_heap_mb." ^ name)
    (float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.)

let boot_storm ~seed ~vms hyp =
  ignore
    (Fleet.Scenario.boot_storm ~seed hyp
       (Fleet.Descriptor.v ~vms [ (Fleet.Descriptor.synthetic, 1) ]))

let run ~seed name =
  match name with
  | "world-switch" ->
      with_gc name (fun () ->
          let _, e1, s1 =
            over_configs ~layer:"hypervisor" "Microbench.run" (fun hyp ->
                ignore (W.Microbench.run ~iterations:1024 hyp))
          in
          let _, e2, s2 =
            over_configs ~layer:"hypervisor" "Netperf.run_tcp_rr" (fun hyp ->
                ignore (W.Netperf.run_tcp_rr ~transactions:20000 hyp))
          in
          (e1 + e2, s1 +. s2))
  | "fleet-storm" ->
      with_gc name (fun () ->
          let _, events, seconds =
            over_configs ~layer:"fleet" "Fleet.Scenario.boot_storm"
              (boot_storm ~seed ~vms:512)
          in
          (events, seconds))
  | "migrate" ->
      with_gc name (fun () ->
          let plan = { Plan.default with Plan.pages = 32768; seed } in
          let results, events, seconds =
            over_configs ~layer:"migrate" "Migration.run" (fun hyp ->
                W.Migration.run ~plan hyp)
          in
          emit "pages"
            (float_of_int
               (List.fold_left
                  (fun acc (r : W.Migration.result) ->
                    acc + r.W.Migration.pages_sent)
                  0 results));
          (events, seconds))
  | "cluster" ->
      with_gc name (fun () ->
          let results, e1, s1 =
            over_configs ~layer:"vswitch" "Cluster.run_loadgen" (fun hyp ->
                W.Cluster.run_loadgen ~seed hyp)
          in
          let _, e2, s2 =
            over_configs ~layer:"vswitch" "Cluster.run_matrix" (fun hyp ->
                W.Cluster.run_matrix ~vms:8 hyp)
          in
          let completed (r : W.Cluster.loadgen_result) =
            List.fold_left
              (fun acc (p : W.Cluster.load_point) -> acc + p.W.Cluster.completed)
              0 r.W.Cluster.points
          in
          emit "requests"
            (float_of_int
               (List.fold_left (fun acc r -> acc + completed r) 0 results));
          emit "loadgen_events" (float_of_int e1);
          emit "loadgen_seconds" s1;
          (e1 + e2, s1 +. s2))
  | "fleet-scaling" ->
      let arm_kvm = List.hd configs in
      let seconds =
        List.map
          (fun vms ->
            let (), _, s =
              simulate ~layer:"fleet"
                (Printf.sprintf "Fleet.Scenario.boot_storm vms=%d" vms)
                arm_kvm (boot_storm ~seed ~vms)
            in
            emit (Printf.sprintf "fleet.host_ms.vms%d" vms) (s *. 1e3);
            s)
          fleet_sizes
      in
      (* log2 of the time ratio per doubling of the fleet: 1 is linear,
         2 quadratic. *)
      let log2_ratio xs =
        Float.log2 (List.nth xs (List.length xs - 1) /. List.hd xs)
      in
      emit "fleet.scaling_exponent"
        (log2_ratio seconds /. log2_ratio (List.map float_of_int fleet_sizes))
  | "engine-micros" ->
      List.iter
        (fun (key, bench) ->
          let (r : Bench_events.result), _ =
            timed ~layer:"engine" ("Bench_events." ^ key) (bench ~scale:1)
          in
          emit
            (Printf.sprintf "engine.micro.%s_ns" key)
            (r.Bench_events.wall_s /. float_of_int r.Bench_events.events *. 1e9))
        micros
  | "platform" ->
      List.iter
        (fun (config, p, id) ->
          let samples =
            List.init construct_samples (fun _ ->
                snd
                  (timed ~layer:"platform" ("Platform.hypervisor " ^ config)
                     (fun () -> ignore (Platform.hypervisor p id))))
          in
          emit ("platform.construct_us." ^ config)
            (Workload.median samples *. 1e6))
        configs
  | other -> invalid_arg ("unknown replica " ^ other)
