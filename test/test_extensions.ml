(* Tests for the extension substrates and experiments: the RNG, the
   credit scheduler, the block device model, and the five
   beyond-the-paper experiments. *)

module Rng = Armvirt_engine.Rng
module Credit_sched = Armvirt_hypervisor.Credit_sched
module Blk_device = Armvirt_io.Blk_device
module Platform = Armvirt_core.Platform
module Experiment = Armvirt_core.Experiment
module W = Armvirt_workloads

(* --- Rng --------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  let seq r = List.init 20 (fun _ -> Rng.int r ~bound:1000) in
  Alcotest.(check (list int)) "same seed, same stream" (seq a) (seq b);
  let c = Rng.create ~seed:8 in
  Alcotest.(check bool) "different seed differs" true
    (seq (Rng.create ~seed:7) <> seq c)

let test_rng_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Rng.int r ~bound:10 in
    if v < 0 || v >= 10 then Alcotest.fail "int out of bounds"
  done;
  Alcotest.check_raises "bound" (Invalid_argument "Rng.int: non-positive bound")
    (fun () -> ignore (Rng.int r ~bound:0))

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:3 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential r ~mean:100.0 in
    if x < 0.0 then Alcotest.fail "negative exponential";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "sample mean near 100" true
    (Float.abs (mean -. 100.0) < 5.0)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:5 in
  let child = Rng.split parent in
  let a = List.init 10 (fun _ -> Rng.int parent ~bound:1000) in
  let b = List.init 10 (fun _ -> Rng.int child ~bound:1000) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_rng_split_no_collisions () =
  (* 1k sibling streams from one parent: with 64-bit mixed child seeds
     no two streams should open identically (the old 30-bit draws hit
     birthday collisions around 2^15 streams; a collision among 1k
     would mean the mixing regressed). *)
  let parent = Rng.create ~seed:11 in
  let bound = (1 lsl 30) - 1 in
  (* Two ~30-bit draws per stream: ~60 bits of fingerprint, so a false
     collision among 1k streams is a ~4e-13 event. *)
  let fingerprint r = (Rng.int r ~bound, Rng.int r ~bound) in
  let seen = Hashtbl.create 1024 in
  for i = 1 to 1000 do
    let fp = fingerprint (Rng.split parent) in
    if Hashtbl.mem seen fp then
      Alcotest.failf "split stream %d collides with an earlier sibling" i;
    Hashtbl.add seen fp ()
  done;
  Alcotest.(check int) "1000 distinct streams" 1000 (Hashtbl.length seen)

let prop_rng_pareto_above_scale =
  QCheck.Test.make ~name:"pareto samples >= scale"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let r = Rng.create ~seed in
      List.for_all
        (fun _ -> Rng.pareto r ~scale:2.0 ~shape:1.5 >= 2.0)
        (List.init 100 Fun.id))

(* --- Credit_sched -------------------------------------------------------- *)

let vcpu dom index = { Credit_sched.dom; index }

let test_sched_basic_pick () =
  let s = Credit_sched.create ~num_pcpus:2 ~timeslice_cycles:1000 in
  Credit_sched.add_vcpu s (vcpu 0 0) ~affinity:0;
  Credit_sched.add_vcpu s (vcpu 1 0) ~affinity:0;
  Alcotest.(check bool) "nothing runnable" true
    (Credit_sched.pick s ~pcpu:0 = None);
  Credit_sched.set_runnable s (vcpu 0 0) true;
  Alcotest.(check bool) "picks the runnable one" true
    (Credit_sched.pick s ~pcpu:0 = Some (vcpu 0 0));
  Alcotest.(check bool) "affinity respected" true
    (Credit_sched.pick s ~pcpu:1 = None)

let test_sched_round_robin () =
  let s = Credit_sched.create ~num_pcpus:1 ~timeslice_cycles:1000 in
  Credit_sched.add_vcpu s (vcpu 0 0) ~affinity:0;
  Credit_sched.add_vcpu s (vcpu 1 0) ~affinity:0;
  Credit_sched.set_runnable s (vcpu 0 0) true;
  Credit_sched.set_runnable s (vcpu 1 0) true;
  (* Charge whoever runs; the other should get the next slice. *)
  let first = Option.get (Credit_sched.pick s ~pcpu:0) in
  Credit_sched.charge s ~pcpu:0 ~cycles:1000;
  let second = Option.get (Credit_sched.pick s ~pcpu:0) in
  Alcotest.(check bool) "alternates between equals" true (first <> second)

let test_sched_wakeup_boost () =
  let s = Credit_sched.create ~num_pcpus:1 ~timeslice_cycles:1000 in
  Credit_sched.add_vcpu s (vcpu 0 0) ~affinity:0;
  Credit_sched.add_vcpu s (vcpu 1 0) ~affinity:0;
  Credit_sched.set_runnable s (vcpu 0 0) true;
  ignore (Credit_sched.pick s ~pcpu:0);
  (* Burn most of dom0's credit. *)
  Credit_sched.charge s ~pcpu:0 ~cycles:500;
  (* An I/O-blocked VCPU wakes: boosted past the incumbent. *)
  Credit_sched.set_runnable s (vcpu 1 0) true;
  Alcotest.(check bool) "woken VCPU preempts" true
    (Credit_sched.pick s ~pcpu:0 = Some (vcpu 1 0))

let test_sched_refill () =
  let s = Credit_sched.create ~num_pcpus:1 ~timeslice_cycles:100 in
  Credit_sched.add_vcpu s (vcpu 0 0) ~affinity:0;
  Credit_sched.set_runnable s (vcpu 0 0) true;
  ignore (Credit_sched.pick s ~pcpu:0);
  (* Exhaust all credit (10 slices worth). *)
  Credit_sched.charge s ~pcpu:0 ~cycles:2000;
  Alcotest.(check bool) "refilled" true (Credit_sched.refills s >= 1);
  Alcotest.(check bool) "credit positive again" true
    (Credit_sched.credit_of s (vcpu 0 0) > 0)

let test_sched_run_to_completion_fair () =
  let s = Credit_sched.create ~num_pcpus:2 ~timeslice_cycles:1000 in
  List.iter
    (fun (v, aff) -> Credit_sched.add_vcpu s v ~affinity:aff)
    [ (vcpu 0 0, 0); (vcpu 0 1, 1); (vcpu 1 0, 0); (vcpu 1 1, 1) ];
  let work = [ (vcpu 0 0, 5000); (vcpu 0 1, 5000); (vcpu 1 0, 5000); (vcpu 1 1, 5000) ] in
  let makespan, switches = Credit_sched.run_to_completion s ~work ~switch_cost:0 in
  (* Two VCPUs per PCPU x 5000 cycles each: ideal makespan 10000. *)
  Alcotest.(check int) "ideal makespan with free switches" 10_000 makespan;
  Alcotest.(check bool) "switching happened" true (switches > 2)

let test_sched_validation () =
  let s = Credit_sched.create ~num_pcpus:1 ~timeslice_cycles:10 in
  Credit_sched.add_vcpu s (vcpu 0 0) ~affinity:0;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Credit_sched.add_vcpu: duplicate VCPU") (fun () ->
      Credit_sched.add_vcpu s (vcpu 0 0) ~affinity:0);
  Alcotest.check_raises "affinity"
    (Invalid_argument "Credit_sched.add_vcpu: affinity out of range") (fun () ->
      Credit_sched.add_vcpu s (vcpu 9 9) ~affinity:5)

(* --- Blk_device ------------------------------------------------------------ *)

let test_blk_timing () =
  let us = Blk_device.service_us Blk_device.ssd_sata3 ~bytes:0 ~write:false in
  Alcotest.(check (float 0.01)) "pure access latency" 80.0 us;
  let big = Blk_device.service_us Blk_device.ssd_sata3 ~bytes:500_000_000 ~write:false in
  Alcotest.(check bool) "1s of streaming at 500MB/s" true
    (Float.abs (big -. 1e6 -. 80.0) < 1.0);
  Alcotest.(check bool) "HD much slower" true
    (Blk_device.service_us Blk_device.raid5_hd ~bytes:4096 ~write:false
    > 10.0 *. Blk_device.service_us Blk_device.ssd_sata3 ~bytes:4096 ~write:false)

let test_blk_cycles () =
  let c =
    Blk_device.service_cycles Blk_device.ssd_sata3 ~freq_ghz:2.4 ~bytes:0
      ~write:true
  in
  Alcotest.(check int) "90us at 2.4GHz" 216_000 c

let test_blk_validation () =
  Alcotest.check_raises "bad params"
    (Invalid_argument "Blk_device: non-positive parameter") (fun () ->
      ignore
        (Blk_device.custom ~read_latency_us:0.0 ~write_latency_us:1.0
           ~read_mb_s:1.0 ~write_mb_s:1.0))

(* --- Extension experiments ---------------------------------------------------- *)

let test_oversub_structure () =
  let hyp = Platform.hypervisor Arm_m400 Xen in
  let r = W.Oversub.run hyp ~vms:2 ~timeslice_ms:1.0 ~work_ms_per_vcpu:10.0 in
  Alcotest.(check bool) "overhead positive but small" true
    (r.W.Oversub.overhead_pct > 0.0 && r.W.Oversub.overhead_pct < 5.0);
  Alcotest.(check bool) "makespan >= ideal" true
    (r.W.Oversub.makespan_ms >= r.W.Oversub.ideal_ms);
  let coarse = W.Oversub.run hyp ~vms:2 ~timeslice_ms:30.0 ~work_ms_per_vcpu:10.0 in
  Alcotest.(check bool) "coarser slices switch less" true
    (coarse.W.Oversub.context_switches <= r.W.Oversub.context_switches)

let test_disk_ordering () =
  let device = Blk_device.ssd_sata3 in
  let native = W.Diskbench.run (Platform.native Arm_m400) ~device in
  let kvm = W.Diskbench.run (Platform.hypervisor Arm_m400 Kvm) ~device in
  let xen = W.Diskbench.run (Platform.hypervisor Arm_m400 Xen) ~device in
  Alcotest.(check (float 0.01)) "native adds nothing" 0.0
    native.W.Diskbench.virt_added_us;
  Alcotest.(check bool) "KVM adds a few us" true
    (kvm.W.Diskbench.virt_added_us > 1.0 && kvm.W.Diskbench.virt_added_us < 20.0);
  Alcotest.(check bool) "Xen adds more (Dom0 + grants)" true
    (xen.W.Diskbench.virt_added_us > kvm.W.Diskbench.virt_added_us);
  Alcotest.(check bool) "device dominates latency on all" true
    (kvm.W.Diskbench.rand_read_us < 2.0 *. native.W.Diskbench.rand_read_us)

let test_tail_latency_ordering () =
  let run hyp = W.Tail_latency.run ~requests:400 hyp ~load:0.3 in
  let native = run (Platform.native Arm_m400) in
  let kvm = run (Platform.hypervisor Arm_m400 Kvm) in
  Alcotest.(check int) "all completed" 400 native.W.Tail_latency.completed;
  Alcotest.(check bool) "percentiles ordered" true
    (native.W.Tail_latency.p50_us <= native.W.Tail_latency.p95_us
    && native.W.Tail_latency.p95_us <= native.W.Tail_latency.p99_us);
  Alcotest.(check bool) "virtualization shifts the whole distribution" true
    (kvm.W.Tail_latency.p50_us > native.W.Tail_latency.p50_us
    && kvm.W.Tail_latency.p99_us > native.W.Tail_latency.p99_us);
  (* Determinism: same seed, same percentiles. *)
  let again = run (Platform.native Arm_m400) in
  Alcotest.(check (float 1e-9)) "deterministic" native.W.Tail_latency.p99_us
    again.W.Tail_latency.p99_us

let test_tail_latency_validation () =
  Alcotest.check_raises "load range"
    (Invalid_argument "Tail_latency.run: load must be in (0, 1)") (fun () ->
      ignore (W.Tail_latency.run (Platform.native Arm_m400) ~load:1.5))

let test_coldstart_structure () =
  let run hyp = W.Coldstart.run hyp ~pages:512 in
  let native = run (Platform.native Arm_m400) in
  let kvm = run (Platform.hypervisor Arm_m400 Kvm) in
  let xen = run (Platform.hypervisor Arm_m400 Xen) in
  let vhe = run (Platform.hypervisor Arm_m400_vhe Kvm) in
  List.iter
    (fun r ->
      Alcotest.(check int) "one fault per page" 512 r.W.Coldstart.faults;
      Alcotest.(check int) "warm pass faults nothing" 0 r.W.Coldstart.warm_faults;
      Alcotest.(check bool) "warm TLB effective" true
        (r.W.Coldstart.tlb_hit_rate_warm > 0.9))
    [ native; kvm; xen; vhe ];
  Alcotest.(check bool) "split-mode KVM faults dearest" true
    (kvm.W.Coldstart.per_fault_cycles > xen.W.Coldstart.per_fault_cycles);
  Alcotest.(check bool) "VHE brings KVM near Xen" true
    (vhe.W.Coldstart.per_fault_cycles < xen.W.Coldstart.per_fault_cycles)

(* Exact LRU at the experiment's TLB size (512 entries): a sweep that fits
   hits on every warm access, and a sequential sweep even one page larger
   never hits, LRU's known worst case. Random or approximate replacement
   would keep some pages and read above 0.0. *)
let test_coldstart_exact_lru () =
  let warm_hit_rate pages =
    (W.Coldstart.run (Platform.hypervisor Arm_m400 Kvm) ~pages)
      .W.Coldstart.tlb_hit_rate_warm
  in
  Alcotest.(check (float 0.0)) "fits the TLB" 1.0 (warm_hit_rate 512);
  Alcotest.(check (float 0.0)) "one page over" 0.0 (warm_hit_rate 513);
  Alcotest.(check (float 0.0)) "regen's size" 0.0 (warm_hit_rate 8192)

let test_lr_sensitivity_monotone () =
  let hyp = Platform.hypervisor Arm_m400 Kvm in
  let results = W.Lr_sensitivity.sweep hyp ~lrs:[ 1; 2; 4; 8; 16 ] ~burst_size:12 ~bursts:50 in
  let rounds = List.map (fun r -> r.W.Lr_sensitivity.maintenance_rounds) results in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "more LRs, fewer maintenance traps" true
    (decreasing rounds);
  (match List.rev results with
  | last :: _ ->
      Alcotest.(check int) "16 LRs absorb 12-interrupt bursts" 0
        last.W.Lr_sensitivity.maintenance_rounds
  | [] -> Alcotest.fail "empty sweep");
  (* All injected interrupts are eventually delivered and completed. *)
  List.iter
    (fun r ->
      Alcotest.(check int) "nothing lost" (12 * 50) r.W.Lr_sensitivity.injected)
    results

let test_timer_tick_scaling () =
  let hyp = Platform.hypervisor Arm_m400 Kvm in
  let results = W.Timer_tick.sweep hyp ~hz:[ 100; 1000 ] in
  (match results with
  | [ low; high ] ->
      Alcotest.(check bool) "ticks scale with HZ" true
        (high.W.Timer_tick.ticks > 5 * low.W.Timer_tick.ticks);
      Alcotest.(check bool) "overhead scales with HZ" true
        (high.W.Timer_tick.cpu_overhead_pct
        > 5.0 *. low.W.Timer_tick.cpu_overhead_pct);
      Alcotest.(check bool) "per-tick cost constant" true
        (low.W.Timer_tick.cycles_per_tick = high.W.Timer_tick.cycles_per_tick)
  | _ -> Alcotest.fail "expected two results");
  (* The tick tax ranks like the interrupt paths: KVM > Xen > VHE. *)
  let per_tick id p =
    (W.Timer_tick.run (Platform.hypervisor p id)).W.Timer_tick.cycles_per_tick
  in
  let kvm = per_tick Platform.Kvm Platform.Arm_m400 in
  let xen = per_tick Platform.Xen Platform.Arm_m400 in
  let vhe = per_tick Platform.Kvm Platform.Arm_m400_vhe in
  Alcotest.(check bool) "KVM > Xen > VHE" true (kvm > xen && xen > vhe)

let test_linkspeed_hides_overhead () =
  (* Section III: over 1 GbE "the network itself became the bottleneck"
     and virtualization overhead disappears — even for Xen. *)
  let slow =
    W.Netperf.tcp_stream ~wire_gbps:0.94 (Platform.hypervisor Arm_m400 Xen)
  in
  Alcotest.(check (float 1e-6)) "Xen at line rate over 1GbE" 1.0
    slow.W.Netperf.stream_normalized;
  let fast = W.Netperf.tcp_stream (Platform.hypervisor Arm_m400 Xen) in
  Alcotest.(check bool) "10GbE exposes it" true
    (fast.W.Netperf.stream_normalized > 3.0)

let test_isolation_discipline () =
  let disciplined =
    W.Isolation.run ~interference:false (Platform.hypervisor Arm_m400 Kvm)
  in
  Alcotest.(check (float 1e-9)) "zero variance under the paper discipline"
    0.0 disciplined.W.Isolation.stddev;
  Alcotest.(check (float 0.6)) "median is Table II's hypercall" 6500.0
    disciplined.W.Isolation.median;
  let noisy =
    W.Isolation.run ~interference:true (Platform.hypervisor Arm_m400 Kvm)
  in
  Alcotest.(check bool) "interference skews by thousands of cycles" true
    (noisy.W.Isolation.stddev > 1000.0
    && noisy.W.Isolation.worst > 6500.0 +. 3000.0);
  (* The median survives contamination — which is exactly why the paper
     could still report representative numbers after controlling it. *)
  Alcotest.(check bool) "median robust" true
    (Float.abs (noisy.W.Isolation.median -. 6500.0) < 800.0)

let test_lazyswitch_progression () =
  let groups = Experiment.lazyswitch () in
  let hypercall label = List.assoc "Hypercall" (List.assoc label groups) in
  let stock = hypercall "stock (paper's KVM)" in
  let fp = hypercall "lazy FP" in
  let vgic = hypercall "lazy VGIC" in
  let both = hypercall "lazy FP + VGIC" in
  let vhe = hypercall "VHE (for reference)" in
  Alcotest.(check int) "stock is Table II" 6500 stock;
  Alcotest.(check bool) "lazy FP shaves the FP classes" true
    (fp < stock && stock - fp < 1000);
  Alcotest.(check bool) "lazy VGIC is the big one" true
    (stock - vgic > 2500);
  Alcotest.(check bool) "monotone: both < vgic < fp < stock" true
    (both < vgic && vgic < fp && fp < stock);
  Alcotest.(check bool) "software alone cannot reach VHE" true
    (both > 2 * vhe);
  (* EOI stays hardware-free in every configuration. *)
  List.iter
    (fun (label, rows) ->
      Alcotest.(check int)
        (label ^ " EOI")
        71
        (List.assoc "Virtual IRQ Completion" rows))
    groups

let test_consolidation_shape () =
  let rows = Experiment.consolidation () in
  Alcotest.(check int) "8 rows (4 densities x 2 hypervisors)" 8
    (List.length rows);
  let get config vms =
    List.find
      (fun r ->
        r.Experiment.cons_config = config && r.Experiment.cons_vms = vms)
      rows
  in
  (* Aggregate never grows once the pool saturates, and per-VM falls. *)
  let kvm2 = get "KVM ARM" 2 and kvm8 = get "KVM ARM" 8 in
  Alcotest.(check bool) "KVM aggregate flat past saturation" true
    (Float.abs (kvm8.Experiment.cons_aggregate_ops -. kvm2.Experiment.cons_aggregate_ops)
    < 1.0);
  Alcotest.(check bool) "per-VM share shrinks" true
    (kvm8.Experiment.cons_per_vm_ops < kvm2.Experiment.cons_per_vm_ops /. 3.0);
  (* KVM consolidates denser than Xen at every density. *)
  List.iter
    (fun vms ->
      let kvm = get "KVM ARM" vms and xen = get "Xen ARM" vms in
      Alcotest.(check bool)
        (Printf.sprintf "KVM > Xen at %d VMs" vms)
        true
        (kvm.Experiment.cons_aggregate_ops > xen.Experiment.cons_aggregate_ops))
    [ 1; 2; 4; 8 ]

let test_guestops_invariants () =
  let groups = Experiment.guestops () in
  let native = List.assoc "Native" groups in
  (* Guest-local operations cost the same everywhere. *)
  List.iter
    (fun (config, rows) ->
      List.iter2
        (fun (n : W.Guest_ops.row) (r : W.Guest_ops.row) ->
          if not r.W.Guest_ops.hypervisor_involved then
            Alcotest.(check int)
              (Printf.sprintf "%s: %s native-speed" config r.W.Guest_ops.op)
              n.W.Guest_ops.cycles r.W.Guest_ops.cycles)
        native rows)
    groups;
  (* ARM completes interrupts in hardware even for guests; x86 traps. *)
  let eoi config =
    (List.find
       (fun (r : W.Guest_ops.row) -> r.W.Guest_ops.op = "interrupt completion (EOI)")
       (List.assoc config groups))
      .W.Guest_ops.cycles
  in
  Alcotest.(check int) "ARM guest EOI is native" 71 (eoi "KVM ARM");
  Alcotest.(check bool) "x86 guest EOI traps" true (eoi "KVM x86" > 1000);
  (* VHE shrinks every hypervisor-involving op vs split mode. *)
  List.iter2
    (fun (k : W.Guest_ops.row) (v : W.Guest_ops.row) ->
      if k.W.Guest_ops.hypervisor_involved then
        Alcotest.(check bool)
          (k.W.Guest_ops.op ^ " cheaper under VHE")
          true
          (v.W.Guest_ops.cycles < k.W.Guest_ops.cycles))
    (List.assoc "KVM ARM" groups)
    (List.assoc "KVM ARM (VHE)" groups)

let test_tracereplay () =
  let kvm = W.Trace_replay.run (Platform.hypervisor Arm_m400 Kvm) in
  let xen = W.Trace_replay.run (Platform.hypervisor Arm_m400 Xen) in
  Alcotest.(check int) "all requests replayed" 2000 kvm.W.Trace_replay.replayed;
  Alcotest.(check int) "three classes" 3
    (List.length kvm.W.Trace_replay.per_class);
  Alcotest.(check bool) "Xen's surcharge larger" true
    (xen.W.Trace_replay.added_cpu_pct > kvm.W.Trace_replay.added_cpu_pct);
  Alcotest.(check bool) "tails too" true
    (xen.W.Trace_replay.p99_added_us > kvm.W.Trace_replay.p99_added_us);
  (* Determinism per seed. *)
  let again = W.Trace_replay.run (Platform.hypervisor Arm_m400 Kvm) in
  Alcotest.(check (float 1e-9)) "deterministic" kvm.W.Trace_replay.p99_added_us
    again.W.Trace_replay.p99_added_us;
  Alcotest.check_raises "empty mix"
    (Invalid_argument "Trace_replay.run: empty mix") (fun () ->
      ignore (W.Trace_replay.run ~mix:[] (Platform.native Arm_m400)))

let test_summary_ci95 () =
  let s = Armvirt_stats.Summary.of_list [ 10.0; 12.0; 8.0; 10.0 ] in
  let lo, hi = Armvirt_stats.Summary.ci95 s in
  Alcotest.(check bool) "interval brackets the mean" true
    (lo < 10.0 && 10.0 < hi);
  let point = Armvirt_stats.Summary.of_list [ 5.0 ] in
  let lo, hi = Armvirt_stats.Summary.ci95 point in
  Alcotest.(check (float 1e-9)) "singleton degenerates" lo hi

let test_experiment_wrappers () =
  Alcotest.(check int) "disk covers both platforms" 6
    (List.length (Experiment.disk ()));
  Alcotest.(check int) "coldstart covers four configs" 4
    (List.length (Experiment.coldstart ()));
  Alcotest.(check int) "lrs covers both ARM hypervisors" 2
    (List.length (Experiment.lrs ()))

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "extensions"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "split collision-free at 1k" `Quick
            test_rng_split_no_collisions;
        ]
        @ qcheck [ prop_rng_pareto_above_scale ] );
      ( "credit_sched",
        [
          Alcotest.test_case "basic pick" `Quick test_sched_basic_pick;
          Alcotest.test_case "round robin" `Quick test_sched_round_robin;
          Alcotest.test_case "wakeup boost" `Quick test_sched_wakeup_boost;
          Alcotest.test_case "refill" `Quick test_sched_refill;
          Alcotest.test_case "run to completion" `Quick
            test_sched_run_to_completion_fair;
          Alcotest.test_case "validation" `Quick test_sched_validation;
        ] );
      ( "blk_device",
        [
          Alcotest.test_case "timing" `Quick test_blk_timing;
          Alcotest.test_case "cycles" `Quick test_blk_cycles;
          Alcotest.test_case "validation" `Quick test_blk_validation;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "oversubscription" `Quick test_oversub_structure;
          Alcotest.test_case "disk ordering" `Quick test_disk_ordering;
          Alcotest.test_case "tail latency" `Quick test_tail_latency_ordering;
          Alcotest.test_case "tail validation" `Quick test_tail_latency_validation;
          Alcotest.test_case "coldstart" `Quick test_coldstart_structure;
          Alcotest.test_case "coldstart exact LRU" `Quick
            test_coldstart_exact_lru;
          Alcotest.test_case "LR sensitivity" `Quick test_lr_sensitivity_monotone;
          Alcotest.test_case "timer tick scaling" `Quick test_timer_tick_scaling;
          Alcotest.test_case "link speed hides overhead" `Quick
            test_linkspeed_hides_overhead;
          Alcotest.test_case "isolation discipline" `Quick
            test_isolation_discipline;
          Alcotest.test_case "lazy switching progression" `Quick
            test_lazyswitch_progression;
          Alcotest.test_case "consolidation shape" `Quick
            test_consolidation_shape;
          Alcotest.test_case "guest ops invariants" `Quick
            test_guestops_invariants;
          Alcotest.test_case "trace replay" `Quick test_tracereplay;
          Alcotest.test_case "ci95" `Quick test_summary_ci95;
          Alcotest.test_case "wrappers" `Quick test_experiment_wrappers;
        ] );
    ]
