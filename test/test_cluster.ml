(* Tests for Armvirt_workloads.Cluster: the pairwise throughput matrix
   (vhost vs Dom0-copy ordering, wire-bound cross-host pairs), the
   client -> LB -> backend service chain, the open-loop load generator
   (monotone hockey-stick tails, million-req/s offered load, and
   generated sweeps that complete and replay), and the jobs-invariance
   of the Experiment wrappers. *)

module Platform = Armvirt_core.Platform
module Experiment = Armvirt_core.Experiment
module Runner = Armvirt_core.Runner
module Cluster = Armvirt_workloads.Cluster
module Topology = Armvirt_vswitch.Topology
module Sim = Armvirt_engine.Sim

let kvm_arm () = Platform.hypervisor Platform.Arm_m400 Platform.Kvm
let xen_arm () = Platform.hypervisor Platform.Arm_m400 Platform.Xen

(* --- pairwise matrix ----------------------------------------------- *)

let test_matrix_shape () =
  let r = Cluster.run_matrix ~vms:4 (kvm_arm ()) in
  Alcotest.(check int) "ordered pairs" 12 (List.length r.Cluster.pairs);
  Alcotest.(check int) "no drops with the window" 0 r.Cluster.dropped;
  List.iter
    (fun p -> Alcotest.(check bool) "positive gbps" true (p.Cluster.gbps > 0.0))
    r.Cluster.pairs;
  (* VMs round-robin across the two hosts: 0,2 vs 1,3. *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "cross flag matches parity"
        ((p.Cluster.src - p.Cluster.dst) mod 2 <> 0)
        p.Cluster.cross_host)
    r.Cluster.pairs

let test_matrix_vhost_beats_dom0_copy () =
  (* The paper's section V contrast at cluster scale: zero-copy vhost
     forwarding vs Xen's per-byte Dom0 grant copies. *)
  let kvm = Cluster.run_matrix ~vms:4 (kvm_arm ()) in
  let xen = Cluster.run_matrix ~vms:4 (xen_arm ()) in
  let same_kvm = Cluster.matrix_mean ~cross:false kvm in
  let same_xen = Cluster.matrix_mean ~cross:false xen in
  Alcotest.(check bool)
    (Printf.sprintf "same-host KVM %.1f > Xen %.1f Gbps" same_kvm same_xen)
    true
    (same_kvm > same_xen);
  let cross_kvm = Cluster.matrix_mean ~cross:true kvm in
  let cross_xen = Cluster.matrix_mean ~cross:true xen in
  Alcotest.(check bool) "cross-host KVM >= Xen" true (cross_kvm >= cross_xen)

let test_matrix_cross_host_wire_bound () =
  let r = Cluster.run_matrix ~vms:4 (kvm_arm ()) in
  let cross = Cluster.matrix_mean ~cross:true r in
  let same = Cluster.matrix_mean ~cross:false r in
  Alcotest.(check bool) "cross-host under the 10 GbE line rate" true
    (cross < 10.0);
  Alcotest.(check bool) "same-host above the wire-bound pairs" true
    (same > cross);
  Alcotest.(check bool) "uplinks were exercised" true
    (r.Cluster.uplink_utilization > 0.0)

let test_matrix_deterministic () =
  let a = Cluster.run_matrix ~vms:4 (kvm_arm ()) in
  let b = Cluster.run_matrix ~vms:4 (kvm_arm ()) in
  Alcotest.(check bool) "same bytes out" true (a = b)

(* The sender waits for every chunk, so a queue that could drop one
   would block the matrix for good: below the window it is refused
   before anything runs; at the window it finishes without a drop. *)
let test_matrix_queue_holds_window () =
  Alcotest.check_raises "queue below the window"
    (Invalid_argument "Cluster.run_matrix: queue_capacity < window")
    (fun () ->
      ignore
        (Cluster.run_matrix ~vms:4
           ~queue_capacity:(Cluster.matrix_window - 1)
           (kvm_arm ())));
  let r =
    Cluster.run_matrix ~vms:4 ~queue_capacity:Cluster.matrix_window (kvm_arm ())
  in
  Alcotest.(check int) "every ordered pair measured" 12
    (List.length r.Cluster.pairs)

(* --- service chain ------------------------------------------------- *)

let test_chain_hops () =
  let r = Cluster.run_chain ~requests:50 (kvm_arm ()) in
  Alcotest.(check int) "seven hops" 7 (List.length r.Cluster.hops);
  List.iter
    (fun (name, us) ->
      Alcotest.(check bool) (name ^ " positive") true (us > 0.0))
    r.Cluster.hops;
  (* Stamps partition the end-to-end interval exactly. *)
  let sum = List.fold_left (fun s (_, us) -> s +. us) 0.0 r.Cluster.hops in
  Alcotest.(check bool) "hops sum to the total" true
    (Float.abs (sum -. r.Cluster.mean_total_us) < 0.01);
  Alcotest.(check bool) "backend crossed the uplink" true
    r.Cluster.backend_cross_host;
  let hop n = List.assoc n r.Cluster.hops in
  (* The backend hop is exactly the service decomposition — the stamps
     bracket one Machine.spend. *)
  let hyp = kvm_arm () in
  let machine = hyp.Armvirt_hypervisor.Hypervisor.machine in
  let service_us =
    Armvirt_arch.Machine.elapsed_us machine
      (Armvirt_engine.Cycles.of_int
         (Armvirt_hypervisor.Hypervisor.request_service_cycles hyp))
  in
  Alcotest.(check (float 0.01)) "backend hop = service decomposition"
    service_us (hop "backend");
  (* The cross-host hop includes at least the 2 us wire propagation. *)
  Alcotest.(check bool) "lb->backend pays the wire" true
    (hop "lb->backend" > 2.0)

let test_chain_single_host () =
  let r = Cluster.run_chain ~requests:20 ~spec:Topology.Single (xen_arm ()) in
  Alcotest.(check bool) "no cross-host hop on one host" false
    r.Cluster.backend_cross_host;
  Alcotest.(check bool) "p99 >= mean-ish" true
    (r.Cluster.p99_total_us >= r.Cluster.mean_total_us *. 0.99)

(* --- load generator ------------------------------------------------ *)

let test_loadgen_monotone_tail () =
  let r =
    Cluster.run_loadgen ~requests:400 ~vms:8
      ~loads:[ 0.3; 0.6; 0.9; 1.1 ] (kvm_arm ())
  in
  Alcotest.(check int) "all points" 4 (List.length r.Cluster.points);
  List.iter
    (fun p ->
      Alcotest.(check int) "all requests completed" 400 p.Cluster.completed)
    r.Cluster.points;
  let p99s = List.map (fun p -> p.Cluster.p99_us) r.Cluster.points in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "p99 monotone in offered load" true (monotone p99s);
  (* The hockey stick: past the knee the tail is far above the idle
     tail. *)
  let lo = List.hd p99s and hi = List.nth p99s 3 in
  Alcotest.(check bool)
    (Printf.sprintf "knee visible (%.1f -> %.1f us)" lo hi)
    true
    (hi > 2.0 *. lo)

let test_loadgen_million_rps () =
  (* ISSUE acceptance: at 16 backends the sweep tops out above one
     million simulated requests per second offered. Two points only —
     the top of the default sweep — to keep the test quick. *)
  let r =
    Cluster.run_loadgen ~requests:200 ~vms:16 ~loads:[ 1.1 ] (kvm_arm ())
  in
  let top = List.hd r.Cluster.points in
  Alcotest.(check bool)
    (Printf.sprintf "offered %.0f rps >= 1e6" top.Cluster.offered_rps)
    true
    (top.Cluster.offered_rps >= 1e6)

let test_loadgen_seed_replay () =
  let a = Cluster.run_loadgen ~seed:7 ~requests:200 ~vms:4 (kvm_arm ()) in
  let b = Cluster.run_loadgen ~seed:7 ~requests:200 ~vms:4 (kvm_arm ()) in
  Alcotest.(check bool) "same seed, same curve" true (a = b);
  let c = Cluster.run_loadgen ~seed:8 ~requests:200 ~vms:4 (kvm_arm ()) in
  Alcotest.(check bool) "different seed, different arrivals" true (a <> c)

let test_loadgen_bad_args () =
  Alcotest.check_raises "zero load"
    (Invalid_argument "Cluster.run_loadgen: load <= 0") (fun () ->
      ignore (Cluster.run_loadgen ~loads:[ 0.0 ] (kvm_arm ())));
  (* Past the range an arrival gap overflows to none at all. *)
  List.iter
    (fun load ->
      Alcotest.check_raises
        (Printf.sprintf "load %g" load)
        (Invalid_argument "Cluster.run_loadgen: load outside 1e-06..1e+06")
        (fun () -> ignore (Cluster.run_loadgen ~loads:[ load ] (kvm_arm ()))))
    [ Float.nan; Float.infinity; 1e-300; 1e300 ]

(* Small sweeps on any model and topology: every point must complete
   exactly its requests (a dropped reply stalls the sweep, as a fixed
   1024-frame reply queue once did, and a lost wake-up deadlocks it),
   and the same seed must replay the same curve. *)
type sweep = {
  config : Platform.t * Platform.hyp_id;
  seed : int;
  vms : int;
  requests : int;
  spec : Topology.spec;
  loads : float list;
}

let show_sweep c =
  Printf.sprintf "%s %s seed=%d vms=%d requests=%d %s loads=%s"
    (Platform.name (fst c.config))
    (match snd c.config with Platform.Kvm -> "kvm" | Platform.Xen -> "xen")
    c.seed c.vms c.requests
    (Topology.spec_to_string c.spec)
    (String.concat "," (List.map string_of_float c.loads))

let arb_sweep =
  let open QCheck.Gen in
  let gen =
    let* config =
      oneofl
        Platform.
          [
            (Arm_m400, Kvm);
            (Arm_m400_vhe, Kvm);
            (Arm_m400, Xen);
            (X86_r320, Kvm);
            (X86_r320, Xen);
          ]
    in
    let* seed = int_bound 1000 in
    let* vms = int_range 1 8 in
    let* requests = int_range 1 64 in
    let* spec = oneofl Topology.[ Single; Pair; Star 3 ] in
    let* loads =
      list_size (int_range 1 3) (oneofl [ 0.05; 0.3; 0.7; 0.95; 1.1; 3.0 ])
    in
    return { config; seed; vms; requests; spec; loads }
  in
  QCheck.make ~print:show_sweep gen

let prop_loadgen_completes =
  QCheck.Test.make ~name:"every point completes its requests; seeds replay"
    ~count:100 arb_sweep (fun c ->
      let run () =
        Cluster.run_loadgen ~seed:c.seed ~requests:c.requests ~vms:c.vms
          ~spec:c.spec ~loads:c.loads
          (Platform.hypervisor (fst c.config) (snd c.config))
      in
      match run () with
      | exception Sim.Deadlock names ->
          QCheck.Test.fail_reportf "deadlock: %s" names
      | r ->
          List.length r.Cluster.points = List.length c.loads
          && List.for_all
               (fun p -> p.Cluster.completed = c.requests)
               r.Cluster.points
          && r = run ())

(* --- experiment wrappers: jobs invariance -------------------------- *)

let with_jobs n f =
  let saved = Runner.jobs () in
  Runner.set_jobs n;
  Fun.protect ~finally:(fun () -> Runner.set_jobs saved) f

let test_experiment_jobs_invariant () =
  let matrix_1 = with_jobs 1 (fun () -> Experiment.cluster_matrix ()) in
  let matrix_4 = with_jobs 4 (fun () -> Experiment.cluster_matrix ()) in
  Alcotest.(check bool) "matrix jobs-invariant" true (matrix_1 = matrix_4);
  Alcotest.(check int) "five models" 5 (List.length matrix_1);
  let chain_1 =
    with_jobs 1 (fun () -> Experiment.cluster_chain ~requests:20 ())
  in
  let chain_4 =
    with_jobs 4 (fun () -> Experiment.cluster_chain ~requests:20 ())
  in
  Alcotest.(check bool) "chain jobs-invariant" true (chain_1 = chain_4)

let test_experiment_loadgen_all_models_knee () =
  (* Every hypervisor model's curve must show the saturation knee. *)
  let results =
    Experiment.cluster_loadgen ~vms:4 ~loads:[ 0.2; 1.1 ] ()
  in
  Alcotest.(check int) "five models" 5 (List.length results);
  List.iter
    (fun (name, r) ->
      match r.Cluster.points with
      | [ lo; hi ] ->
          Alcotest.(check bool) (name ^ " knee") true
            (hi.Cluster.p99_us > 2.0 *. lo.Cluster.p99_us)
      | _ -> Alcotest.fail "two points expected")
    results

let () =
  Alcotest.run "cluster"
    [
      ( "matrix",
        [
          Alcotest.test_case "shape" `Quick test_matrix_shape;
          Alcotest.test_case "vhost beats dom0 copy" `Quick
            test_matrix_vhost_beats_dom0_copy;
          Alcotest.test_case "cross-host wire bound" `Quick
            test_matrix_cross_host_wire_bound;
          Alcotest.test_case "deterministic" `Quick test_matrix_deterministic;
          Alcotest.test_case "queue holds the window" `Quick
            test_matrix_queue_holds_window;
        ] );
      ( "chain",
        [
          Alcotest.test_case "hops" `Quick test_chain_hops;
          Alcotest.test_case "single host" `Quick test_chain_single_host;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "monotone tail" `Quick test_loadgen_monotone_tail;
          Alcotest.test_case "million rps" `Quick test_loadgen_million_rps;
          Alcotest.test_case "seed replay" `Quick test_loadgen_seed_replay;
          Alcotest.test_case "bad args" `Quick test_loadgen_bad_args;
          QCheck_alcotest.to_alcotest prop_loadgen_completes;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "jobs invariant" `Quick
            test_experiment_jobs_invariant;
          Alcotest.test_case "all models knee" `Quick
            test_experiment_loadgen_all_models_knee;
        ] );
    ]
