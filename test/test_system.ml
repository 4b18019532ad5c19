(* Integration tests: the structural request-response stack
   (Armvirt_system.Rr_system) against the analytic Netperf model, plus
   protocol-exercise checks. *)

module Platform = Armvirt_core.Platform
module Netperf = Armvirt_workloads.Netperf
module Rr_system = Armvirt_system.Rr_system
module Hypervisor = Armvirt_hypervisor.Hypervisor

let run name = Rr_system.run ~transactions:60 (Platform.hypervisor Arm_m400 name)

let test_native_matches_analytic () =
  let structural = Rr_system.run ~transactions:60 (Platform.native Arm_m400) in
  let analytic = Netperf.run_tcp_rr ~transactions:60 (Platform.native Arm_m400) in
  let diff =
    Float.abs
      (structural.Rr_system.time_per_trans_us
     -. analytic.Netperf.time_per_trans_us)
  in
  Alcotest.(check bool) "within 10% of the analytic model" true
    (diff /. analytic.Netperf.time_per_trans_us < 0.10);
  Alcotest.(check bool) "no rings natively" true
    (structural.Rr_system.rings_used = 0
    && structural.Rr_system.grants_used = 0
    && structural.Rr_system.virqs_injected = 0)

let test_kvm_matches_analytic () =
  let structural = run Platform.Kvm in
  let analytic =
    Netperf.run_tcp_rr ~transactions:60 (Platform.hypervisor Arm_m400 Kvm)
  in
  let diff =
    Float.abs
      (structural.Rr_system.time_per_trans_us
     -. analytic.Netperf.time_per_trans_us)
  in
  Alcotest.(check bool) "within 15% of the analytic model" true
    (diff /. analytic.Netperf.time_per_trans_us < 0.15);
  (* The structural run really used the virtqueues and the vGIC. *)
  Alcotest.(check bool) "rings used (rx+tx per transaction)" true
    (structural.Rr_system.rings_used >= 2 * structural.Rr_system.transactions);
  Alcotest.(check int) "one vIRQ per transaction"
    structural.Rr_system.transactions structural.Rr_system.virqs_injected;
  Alcotest.(check int) "KVM grants nothing" 0 structural.Rr_system.grants_used

let test_xen_matches_analytic () =
  let structural = run Platform.Xen in
  let analytic =
    Netperf.run_tcp_rr ~transactions:60 (Platform.hypervisor Arm_m400 Xen)
  in
  let diff =
    Float.abs
      (structural.Rr_system.time_per_trans_us
     -. analytic.Netperf.time_per_trans_us)
  in
  Alcotest.(check bool) "within 15% of the analytic model" true
    (diff /. analytic.Netperf.time_per_trans_us < 0.15);
  (* Every packet crossed the grant mechanism, both directions. *)
  Alcotest.(check int) "two grant map/unmap pairs per transaction"
    (2 * structural.Rr_system.transactions)
    structural.Rr_system.grants_used

let test_ordering_preserved () =
  let native = Rr_system.run ~transactions:40 (Platform.native Arm_m400) in
  let kvm = Rr_system.run ~transactions:40 (Platform.hypervisor Arm_m400 Kvm) in
  let xen = Rr_system.run ~transactions:40 (Platform.hypervisor Arm_m400 Xen) in
  Alcotest.(check bool) "native fastest" true
    (native.Rr_system.trans_per_sec > kvm.Rr_system.trans_per_sec);
  Alcotest.(check bool) "KVM beats Xen end to end" true
    (kvm.Rr_system.trans_per_sec > xen.Rr_system.trans_per_sec);
  let vm_time r = Option.get r.Rr_system.vm_internal_us in
  Alcotest.(check bool) "VM-internal times similar across hypervisors" true
    (Float.abs (vm_time kvm -. vm_time xen) < 2.5)

let test_deterministic () =
  let a = run Platform.Xen in
  let b = run Platform.Xen in
  Alcotest.(check (float 1e-9)) "bit-identical reruns"
    a.Rr_system.time_per_trans_us b.Rr_system.time_per_trans_us

(* Bare metal is told apart by its kind, not its display name: a native
   host renamed the way examples/custom_hypervisor.ml renames a model
   still takes the direct path, in the structural stack and in Netperf. *)
let test_renamed_native_stays_native () =
  let renamed () =
    { (Platform.native Arm_m400) with Hypervisor.name = "Bare metal" }
  in
  let plain = Rr_system.run ~transactions:40 (Platform.native Arm_m400) in
  let r = Rr_system.run ~transactions:40 (renamed ()) in
  Alcotest.(check (float 0.)) "rr_system time per transaction"
    plain.Rr_system.time_per_trans_us r.Rr_system.time_per_trans_us;
  Alcotest.(check int) "no rings" 0 r.Rr_system.rings_used;
  let plain = Netperf.run_tcp_rr ~transactions:40 (Platform.native Arm_m400) in
  let r = Netperf.run_tcp_rr ~transactions:40 (renamed ()) in
  Alcotest.(check (float 0.)) "netperf time per transaction"
    plain.Netperf.time_per_trans_us r.Netperf.time_per_trans_us

(* --- stream_system ------------------------------------------------------ *)

module Stream_system = Armvirt_system.Stream_system
module Netperf_w = Armvirt_workloads.Netperf

let test_stream_structural_vs_analytic () =
  let structural =
    Stream_system.run ~frames:2000 (Platform.hypervisor Arm_m400 Xen)
  in
  let analytic = Netperf_w.tcp_stream (Platform.hypervisor Arm_m400 Xen) in
  (* Same costs, different machinery: throughputs must be in the same
     ballpark (the structural run lacks GRO so it sits a little lower). *)
  let ratio = structural.Stream_system.gbps /. analytic.Netperf_w.gbps in
  Alcotest.(check bool) "within 2x of the analytic model" true
    (ratio > 0.5 && ratio < 2.0);
  Alcotest.(check int) "every frame delivered" 2000
    structural.Stream_system.frames

let test_stream_interrupt_suppression () =
  (* The ring's backend-live window must coalesce interrupts heavily
     under bulk load — the batching of section V. *)
  let r = Stream_system.run ~frames:2000 (Platform.hypervisor Arm_m400 Kvm) in
  Alcotest.(check bool) "far fewer interrupts than frames" true
    (r.Stream_system.interrupts * 4 < r.Stream_system.frames);
  Alcotest.(check bool) "suppression ratio > 4" true
    (r.Stream_system.suppression_ratio > 4.0)

let test_stream_kvm_faster_than_xen () =
  let kvm = Stream_system.run ~frames:1500 (Platform.hypervisor Arm_m400 Kvm) in
  let xen = Stream_system.run ~frames:1500 (Platform.hypervisor Arm_m400 Xen) in
  Alcotest.(check bool) "zero copy wins structurally" true
    (kvm.Stream_system.gbps > xen.Stream_system.gbps)

(* --- hackbench_system ----------------------------------------------------- *)

module Hackbench_system = Armvirt_system.Hackbench_system
module App_model = Armvirt_workloads.App_model
module Workload = Armvirt_workloads.Workload

let test_hackbench_structural_matches_fig4 () =
  let kvm = Hackbench_system.run (Platform.hypervisor Arm_m400 Kvm) in
  let xen = Hackbench_system.run (Platform.hypervisor Arm_m400 Xen) in
  (* Structural wake/IPI pattern lands near the Figure 4 bars. *)
  let fig4 id =
    (App_model.run
       (Option.get (Workload.find "Hackbench"))
       (Platform.hypervisor Arm_m400 id))
      .App_model.normalized
  in
  Alcotest.(check bool) "KVM near its Figure 4 bar" true
    (Float.abs (kvm.Hackbench_system.normalized -. fig4 Platform.Kvm) < 0.06);
  Alcotest.(check bool) "Xen near its Figure 4 bar" true
    (Float.abs (xen.Hackbench_system.normalized -. fig4 Platform.Xen) < 0.06);
  Alcotest.(check bool) "Xen's cheap vIPIs beat KVM's" true
    (xen.Hackbench_system.normalized < kvm.Hackbench_system.normalized);
  Alcotest.(check bool) "a substantial fraction of sends woke a parked \
                         receiver" true
    (kvm.Hackbench_system.wakeups * 4 > kvm.Hackbench_system.messages)

let test_hackbench_native_is_one () =
  let native = Hackbench_system.run (Platform.native Arm_m400) in
  Alcotest.(check (float 1e-9)) "native normalized" 1.0
    native.Hackbench_system.normalized

(* --- maerts_system --------------------------------------------------------- *)

module Maerts_system = Armvirt_system.Maerts_system

let test_maerts_window_throttles_xen () =
  let xen_buggy =
    Maerts_system.run ~frames:1200 (Platform.hypervisor Arm_m400 Xen)
  in
  let xen_fixed =
    Maerts_system.run ~frames:1200 ~tso_bug:false
      (Platform.hypervisor Arm_m400 Xen)
  in
  Alcotest.(check bool) "regression collapses the window" true
    (xen_buggy.Maerts_system.window_frames < 10
    && xen_fixed.Maerts_system.window_frames = 42);
  (* Per-MTU framing: the grant cost binds before the window does, so
     fixing the window alone buys nothing — TSO batching (the analytic
     model's regime) is what recovers the throughput. *)
  Alcotest.(check bool) "Xen backend-bound either way" true
    (xen_buggy.Maerts_system.backend_bound
    && xen_fixed.Maerts_system.backend_bound);
  Alcotest.(check bool) "Xen far below line rate" true
    (xen_fixed.Maerts_system.gbps < 4.0);
  let kvm = Maerts_system.run ~frames:1200 (Platform.hypervisor Arm_m400 Kvm) in
  Alcotest.(check bool) "KVM's fast completions keep the window open" true
    (kvm.Maerts_system.window_frames = 42);
  Alcotest.(check bool) "KVM near line rate" true (kvm.Maerts_system.gbps > 8.0);
  Alcotest.(check bool) "KVM not backend-bound" false
    kvm.Maerts_system.backend_bound;
  (* Kick suppression works on the transmit side too. *)
  Alcotest.(check bool) "few kicks" true
    (kvm.Maerts_system.completion_round_trips * 4 < kvm.Maerts_system.frames)

let test_maerts_structural_vs_analytic () =
  let structural =
    Maerts_system.run ~frames:1200 (Platform.hypervisor Arm_m400 Xen)
  in
  let analytic = Netperf_w.tcp_maerts (Platform.hypervisor Arm_m400 Xen) in
  let ratio = structural.Maerts_system.gbps /. analytic.Netperf_w.gbps in
  Alcotest.(check bool) "within 2x of the analytic model" true
    (ratio > 0.5 && ratio < 2.0)

(* --- disk_system ------------------------------------------------------------ *)

module Disk_system = Armvirt_system.Disk_system
module Diskbench = Armvirt_workloads.Diskbench

let test_disk_structural_vs_analytic () =
  let device = Armvirt_io.Blk_device.ssd_sata3 in
  List.iter
    (fun id ->
      let hyp = Platform.hypervisor Arm_m400 id in
      let structural = Disk_system.run ~requests:32 hyp ~device in
      let analytic =
        (Diskbench.run (Platform.hypervisor Arm_m400 id) ~device)
          .Diskbench.rand_read_us
      in
      let diff = Float.abs (structural.Disk_system.mean_latency_us -. analytic) in
      Alcotest.(check bool)
        (Printf.sprintf "within 15%% of the analytic model (%.1f vs %.1f)"
           structural.Disk_system.mean_latency_us analytic)
        true
        (diff /. analytic < 0.15))
    [ Platform.Kvm; Platform.Xen ]

let test_disk_queue_depth_one_wakeups () =
  let device = Armvirt_io.Blk_device.ssd_sata3 in
  let r =
    Disk_system.run ~requests:32 (Platform.hypervisor Arm_m400 Kvm) ~device
  in
  (* Queue depth 1: the worker parks between requests, so every request
     is one wakeup. *)
  Alcotest.(check int) "one wakeup per request" 32
    r.Disk_system.backend_wakeups;
  Alcotest.(check int) "all completed" 32 r.Disk_system.requests

(* --- consolidation_system ----------------------------------------------------- *)

module Consolidation_system = Armvirt_system.Consolidation_system

let test_consolidation_structural () =
  let kvm =
    Consolidation_system.run ~vms:4 ~requests_per_vm:150
      (Platform.hypervisor Arm_m400 Kvm)
  in
  let xen =
    Consolidation_system.run ~vms:4 ~requests_per_vm:150
      (Platform.hypervisor Arm_m400 Xen)
  in
  Alcotest.(check int) "KVM: one vhost per VM" 4 kvm.Consolidation_system.backend_workers;
  Alcotest.(check int) "Xen: one netback for all" 1
    xen.Consolidation_system.backend_workers;
  Alcotest.(check bool) "the shared netback serializes: Xen slower" true
    (xen.Consolidation_system.makespan_ms > kvm.Consolidation_system.makespan_ms);
  (* Both architectures are fair across identical VMs. *)
  Alcotest.(check bool) "KVM fair" true (kvm.Consolidation_system.fairness > 0.99);
  Alcotest.(check bool) "Xen fair" true (xen.Consolidation_system.fairness > 0.95);
  Alcotest.(check int) "throughput list per VM" 4
    (List.length kvm.Consolidation_system.per_vm_throughput)

let test_consolidation_scales_with_vms () =
  let run vms =
    (Consolidation_system.run ~vms ~requests_per_vm:100
       (Platform.hypervisor Arm_m400 Xen))
      .Consolidation_system.makespan_ms
  in
  Alcotest.(check bool) "more VMs, longer netback makespan" true
    (run 4 > run 2)

let test_stream_rejects_native () =
  Alcotest.check_raises "native has no ring"
    (Invalid_argument "Stream_system.run: no paravirtual ring natively")
    (fun () -> ignore (Stream_system.run (Platform.native Arm_m400)))

let () =
  Alcotest.run "system"
    [
      ( "rr_system",
        [
          Alcotest.test_case "native matches analytic" `Quick
            test_native_matches_analytic;
          Alcotest.test_case "kvm matches analytic" `Quick
            test_kvm_matches_analytic;
          Alcotest.test_case "xen matches analytic" `Quick
            test_xen_matches_analytic;
          Alcotest.test_case "ordering preserved" `Quick test_ordering_preserved;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "renamed native stays native" `Quick
            test_renamed_native_stays_native;
        ] );
      ( "stream_system",
        [
          Alcotest.test_case "structural vs analytic" `Quick
            test_stream_structural_vs_analytic;
          Alcotest.test_case "interrupt suppression" `Quick
            test_stream_interrupt_suppression;
          Alcotest.test_case "kvm beats xen" `Quick
            test_stream_kvm_faster_than_xen;
          Alcotest.test_case "rejects native" `Quick test_stream_rejects_native;
        ] );
      ( "consolidation_system",
        [
          Alcotest.test_case "architectures contrasted" `Quick
            test_consolidation_structural;
          Alcotest.test_case "netback makespan scales" `Quick
            test_consolidation_scales_with_vms;
        ] );
      ( "disk_system",
        [
          Alcotest.test_case "structural vs analytic" `Quick
            test_disk_structural_vs_analytic;
          Alcotest.test_case "queue-depth-1 wakeups" `Quick
            test_disk_queue_depth_one_wakeups;
        ] );
      ( "maerts_system",
        [
          Alcotest.test_case "window throttles Xen" `Quick
            test_maerts_window_throttles_xen;
          Alcotest.test_case "structural vs analytic" `Quick
            test_maerts_structural_vs_analytic;
        ] );
      ( "hackbench_system",
        [
          Alcotest.test_case "matches Figure 4" `Quick
            test_hackbench_structural_matches_fig4;
          Alcotest.test_case "native is 1.0" `Quick test_hackbench_native_is_one;
        ] );
    ]
