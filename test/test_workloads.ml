(* Tests for Armvirt_workloads: the microbenchmark suite, the workload
   profiles, the Figure 4 bottleneck model and the Netperf models. *)

module Cycles = Armvirt_engine.Cycles
module Summary = Armvirt_stats.Summary
module Platform = Armvirt_core.Platform
module W = Armvirt_workloads
module Microbench = W.Microbench
module Workload = W.Workload
module App_model = W.App_model
module Netperf = W.Netperf

(* --- Microbench ---------------------------------------------------------- *)

let test_microbench_runs_all_seven () =
  let results = Microbench.run ~iterations:4 (Platform.hypervisor Arm_m400 Kvm) in
  let rows = Microbench.to_rows results in
  Alcotest.(check int) "seven rows" 7 (List.length rows);
  Alcotest.(check (list string)) "Table I order"
    [
      "Hypercall"; "Interrupt Controller Trap"; "Virtual IPI";
      "Virtual IRQ Completion"; "VM Switch"; "I/O Latency Out";
      "I/O Latency In";
    ]
    (List.map fst rows)

let test_microbench_no_variance () =
  (* The simulator is deterministic: every iteration measures the same
     cost, like the paper's carefully-controlled samples. *)
  let results = Microbench.run ~iterations:8 (Platform.hypervisor Arm_m400 Xen) in
  Alcotest.(check (float 1e-9)) "zero variance" 0.0
    (Summary.stddev results.Microbench.hypercall);
  Alcotest.(check int) "sample size" 8
    (Summary.count results.Microbench.hypercall)

let test_microbench_rejects_bad_iterations () =
  Alcotest.check_raises "iterations"
    (Invalid_argument "Microbench.run: iterations < 1") (fun () ->
      ignore (Microbench.run ~iterations:0 (Platform.native Arm_m400)))

(* --- Workload registry ----------------------------------------------------- *)

let test_workload_registry () =
  Alcotest.(check int) "six modelled workloads" 6 (List.length Workload.all);
  Alcotest.(check bool) "find is case-insensitive" true
    (Workload.find "apache" <> None && Workload.find "APACHE" <> None);
  Alcotest.(check bool) "unknown" true (Workload.find "doom" = None);
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (w.Workload.name ^ " irq_side <= total")
        true
        (w.Workload.irq_side_cycles <= w.Workload.total_cycles))
    Workload.all

let test_workload_categories () =
  let cat name =
    (Option.get (Workload.find name)).Workload.category
  in
  Alcotest.(check bool) "kernbench cpu-bound" true
    (cat "Kernbench" = Workload.Cpu_bound);
  Alcotest.(check bool) "apache io" true
    (cat "Apache" = Workload.Io_throughput)

(* --- App_model -------------------------------------------------------------- *)

let test_app_model_native_is_one () =
  List.iter
    (fun w ->
      let v = App_model.run w (Platform.native Arm_m400) in
      Alcotest.(check (float 1e-9))
        (w.Workload.name ^ " native = 1.0")
        1.0 v.App_model.normalized)
    Workload.all

let test_app_model_cpu_bound_small_overhead () =
  List.iter
    (fun name ->
      let w = Option.get (Workload.find name) in
      List.iter
        (fun id ->
          let v = App_model.run w (Platform.hypervisor Arm_m400 id) in
          Alcotest.(check bool)
            (name ^ " overhead < 15%")
            true
            (v.App_model.normalized < 1.15))
        [ Platform.Kvm; Platform.Xen ])
    [ "Kernbench"; "SPECjvm2008"; "Hackbench" ]

let test_app_model_apache_ordering () =
  (* Section V: KVM ARM beats Xen ARM on Apache despite slower
     transitions; the bottleneck is VCPU0. *)
  let w = Option.get (Workload.find "Apache") in
  let kvm = App_model.run w (Platform.hypervisor Arm_m400 Kvm) in
  let xen = App_model.run w (Platform.hypervisor Arm_m400 Xen) in
  Alcotest.(check bool) "KVM < Xen" true
    (kvm.App_model.normalized < xen.App_model.normalized);
  Alcotest.(check string) "Xen bound on vcpu0" "vcpu0" xen.App_model.bottleneck;
  Alcotest.(check bool) "Xen overhead large (paper: 84%)" true
    (xen.App_model.normalized > 1.5)

let test_app_model_irq_distribution_helps () =
  List.iter
    (fun name ->
      let w = Option.get (Workload.find name) in
      List.iter
        (fun id ->
          let hyp = Platform.hypervisor Arm_m400 id in
          let single =
            App_model.run ~irq_distribution:App_model.Single_vcpu w hyp
          in
          let dist =
            App_model.run ~irq_distribution:App_model.All_vcpus w hyp
          in
          Alcotest.(check bool)
            (name ^ " distribution reduces overhead")
            true
            (dist.App_model.normalized < single.App_model.normalized))
        [ Platform.Kvm; Platform.Xen ])
    [ "Apache"; "Memcached" ]

let test_app_model_hackbench_gap () =
  (* Xen's 2x-faster vIPIs buy only a few points on Hackbench
     (section V: "only 5% of native performance"). *)
  let w = Option.get (Workload.find "Hackbench") in
  let kvm = App_model.run w (Platform.hypervisor Arm_m400 Kvm) in
  let xen = App_model.run w (Platform.hypervisor Arm_m400 Xen) in
  let gap = kvm.App_model.normalized -. xen.App_model.normalized in
  Alcotest.(check bool) "Xen ahead by a small margin" true
    (gap > 0.0 && gap < 0.12)

let test_app_model_validation () =
  let bad = { Workload.kernbench with Workload.irq_side_cycles = 1e12 } in
  Alcotest.check_raises "inconsistent profile"
    (Invalid_argument "App_model.run: irq_side_cycles exceeds total_cycles")
    (fun () -> ignore (App_model.run bad (Platform.native Arm_m400)))

(* --- Netperf TCP_RR ----------------------------------------------------------- *)

let test_rr_native_matches_table5 () =
  let r = Netperf.run_tcp_rr ~transactions:100 (Platform.native Arm_m400) in
  Alcotest.(check bool) "~23,900 trans/s" true
    (Float.abs (r.Netperf.trans_per_sec -. 23911.0) < 500.0);
  Alcotest.(check bool) "41.8 us/trans" true
    (Float.abs (r.Netperf.time_per_trans_us -. 41.8) < 0.5);
  Alcotest.(check bool) "native recv-to-send = 14.5us" true
    (Float.abs (r.Netperf.recv_to_send_us -. 14.5) < 0.2);
  Alcotest.(check bool) "no VM intervals natively" true
    (r.Netperf.recv_to_vm_recv_us = None)

let test_rr_virtualized_structure () =
  let kvm = Netperf.run_tcp_rr ~transactions:50 (Platform.hypervisor Arm_m400 Kvm) in
  let xen = Netperf.run_tcp_rr ~transactions:50 (Platform.hypervisor Arm_m400 Xen) in
  (* Both roughly double the native transaction time; Xen worse. *)
  Alcotest.(check bool) "KVM ~2x" true
    (kvm.Netperf.normalized > 1.6 && kvm.Netperf.normalized < 2.3);
  Alcotest.(check bool) "Xen worse than KVM" true
    (xen.Netperf.normalized > kvm.Netperf.normalized);
  (* Table V structure: the VM-internal time is only slightly above the
     native processing time for both hypervisors. *)
  let vm_time r = Option.get r.Netperf.vm_recv_to_vm_send_us in
  Alcotest.(check bool) "KVM VM-internal close to native" true
    (vm_time kvm -. 14.5 < 4.0);
  Alcotest.(check bool) "VM intervals similar across hypervisors" true
    (Float.abs (vm_time kvm -. vm_time xen) < 2.0);
  (* Xen delays the physical receive stamp (Dom0 must wake). *)
  Alcotest.(check bool) "Xen send-to-recv exceeds KVM's" true
    (xen.Netperf.send_to_recv_us > kvm.Netperf.send_to_recv_us +. 2.0)

let test_rr_intervals_sum () =
  let r = Netperf.run_tcp_rr ~transactions:20 (Platform.hypervisor Arm_m400 Kvm) in
  let sum =
    Option.get r.Netperf.recv_to_vm_recv_us
    +. Option.get r.Netperf.vm_recv_to_vm_send_us
    +. Option.get r.Netperf.vm_send_to_send_us
  in
  Alcotest.(check (float 0.1)) "decomposition sums to recv-to-send"
    r.Netperf.recv_to_send_us sum

(* --- Netperf STREAM / MAERTS ----------------------------------------------------- *)

let test_stream_results () =
  let native = Netperf.tcp_stream (Platform.native Arm_m400) in
  Alcotest.(check (float 1e-9)) "native at line rate" Netperf.wire_gbps
    native.Netperf.gbps;
  let kvm = Netperf.tcp_stream (Platform.hypervisor Arm_m400 Kvm) in
  Alcotest.(check bool) "KVM within 5% of line rate (zero copy)" true
    (kvm.Netperf.stream_normalized < 1.05);
  let xen = Netperf.tcp_stream (Platform.hypervisor Arm_m400 Xen) in
  Alcotest.(check bool) "Xen more than 250% overhead (section V)" true
    (xen.Netperf.stream_normalized > 3.5);
  Alcotest.(check string) "bound by the copying backend" "backend"
    xen.Netperf.stream_bottleneck

let test_maerts_tso_regression () =
  let buggy = Netperf.tcp_maerts (Platform.hypervisor Arm_m400 Xen) in
  Alcotest.(check bool) "regressed Xen transmit" true
    (buggy.Netperf.stream_normalized > 1.8);
  Alcotest.(check string) "window-bound" "window" buggy.Netperf.stream_bottleneck;
  let fixed =
    Netperf.tcp_maerts ~tso_bug:false (Platform.hypervisor Arm_m400 Xen)
  in
  (* The paper confirmed tuning the guest TCP configuration
     "significantly reduced the overhead". *)
  Alcotest.(check bool) "fix recovers most of the loss" true
    (fixed.Netperf.stream_normalized < buggy.Netperf.stream_normalized /. 1.5);
  let kvm = Netperf.tcp_maerts (Platform.hypervisor Arm_m400 Kvm) in
  Alcotest.(check bool) "KVM unaffected by the regression" true
    (kvm.Netperf.stream_normalized < 1.1)

(* --- Fleet profiles: the --profile-mix parser -------------------- *)

module Descriptor = Armvirt_fleet.Descriptor

let test_profile_mix () =
  match W.Fleet_profiles.parse_mix "memcached=2, Kernbench ,synthetic=3" with
  | Error e -> Alcotest.fail e
  | Ok [ (m, 2); (k, 1); (s, 3) ] ->
      (* I/O-bound guests are 1-VCPU/128 MB with at least the work floor;
         CPU-bound ones 2-VCPU/512 MB with total_cycles / 10^4 of work. *)
      Alcotest.(check (list (pair string int)))
        "memcached" [ ("memcached", 1); ("mem", 128); ("work", 4_800_000) ]
        [ (m.Descriptor.name, m.vcpus); ("mem", m.mem_mb); ("work", m.work_cycles) ];
      Alcotest.(check (list (pair string int)))
        "kernbench" [ ("kernbench", 2); ("mem", 512); ("work", 57_600_000) ]
        [ (k.Descriptor.name, k.vcpus); ("mem", k.mem_mb); ("work", k.work_cycles) ];
      Alcotest.(check bool) "synthetic is the baseline" true
        (s = Descriptor.synthetic)
  | Ok mix -> Alcotest.failf "unexpected mix of %d entries" (List.length mix)

let test_profile_mix_errors () =
  List.iter
    (fun spec ->
      match W.Fleet_profiles.parse_mix spec with
      | Ok _ -> Alcotest.failf "%S accepted" spec
      | Error _ -> ())
    [ ""; "  "; "bogus"; "memcached=0"; "memcached=x"; "synthetic=-1";
      "kernbench,bogus=2" ]

let () =
  Alcotest.run "workloads"
    [
      ( "microbench",
        [
          Alcotest.test_case "runs all seven" `Quick test_microbench_runs_all_seven;
          Alcotest.test_case "deterministic samples" `Quick
            test_microbench_no_variance;
          Alcotest.test_case "validation" `Quick
            test_microbench_rejects_bad_iterations;
        ] );
      ( "workload",
        [
          Alcotest.test_case "registry" `Quick test_workload_registry;
          Alcotest.test_case "categories" `Quick test_workload_categories;
        ] );
      ( "fleet_profiles",
        [
          Alcotest.test_case "profile mix" `Quick test_profile_mix;
          Alcotest.test_case "profile mix errors" `Quick test_profile_mix_errors;
        ] );
      ( "app_model",
        [
          Alcotest.test_case "native = 1.0" `Quick test_app_model_native_is_one;
          Alcotest.test_case "cpu-bound small overhead" `Quick
            test_app_model_cpu_bound_small_overhead;
          Alcotest.test_case "apache ordering" `Quick test_app_model_apache_ordering;
          Alcotest.test_case "irq distribution helps" `Quick
            test_app_model_irq_distribution_helps;
          Alcotest.test_case "hackbench gap small" `Quick
            test_app_model_hackbench_gap;
          Alcotest.test_case "validation" `Quick test_app_model_validation;
        ] );
      ( "netperf_rr",
        [
          Alcotest.test_case "native matches Table V" `Quick
            test_rr_native_matches_table5;
          Alcotest.test_case "virtualized structure" `Quick
            test_rr_virtualized_structure;
          Alcotest.test_case "intervals sum" `Quick test_rr_intervals_sum;
        ] );
      ( "netperf_bulk",
        [
          Alcotest.test_case "stream" `Quick test_stream_results;
          Alcotest.test_case "maerts TSO regression" `Quick
            test_maerts_tso_regression;
        ] );
    ]
