(* Tests for Armvirt_hypervisor: the VM abstraction, the four hypervisor
   models, the VHE variant and the native baseline. Expected cycle
   values are the paper's Table II; the models are calibrated to land on
   them (DESIGN.md section 3.2), so these tests pin the calibration. *)

module Cycles = Armvirt_engine.Cycles
module Sim = Armvirt_engine.Sim
module Machine = Armvirt_arch.Machine
module Cost_model = Armvirt_arch.Cost_model
module Reg_class = Armvirt_arch.Reg_class
module H = Armvirt_hypervisor
module Hypervisor = H.Hypervisor
module Io_profile = H.Io_profile

let arm_machine ?(vhe = false) () =
  let sim = Sim.create () in
  let cost =
    Cost_model.Arm (if vhe then Cost_model.arm_vhe else Cost_model.arm_default)
  in
  Machine.create sim ~cost ~num_cpus:8

let x86_machine () =
  let sim = Sim.create () in
  Machine.create sim ~cost:(Cost_model.X86 Cost_model.x86_default) ~num_cpus:8

(* Run [f] in a simulation process and return the cycles it consumed
   (including remote work it waited on). *)
let measure machine f =
  let sim = Machine.sim machine in
  let result = ref 0 in
  Sim.spawn sim ~name:"measure" (fun () ->
      let t0 = Sim.current_time () in
      f ();
      result := Cycles.to_int (Cycles.sub (Sim.current_time ()) t0));
  Sim.run sim;
  !result

let measure_latency machine f =
  let sim = Machine.sim machine in
  let result = ref Cycles.zero in
  Sim.spawn sim ~name:"measure" (fun () -> result := f ());
  Sim.run sim;
  Cycles.to_int !result

let within pct expected actual =
  let tolerance = float_of_int expected *. pct /. 100.0 in
  Float.abs (float_of_int (actual - expected)) <= tolerance

let check_cycles name expected actual =
  if not (within 6.0 expected actual) then
    Alcotest.failf "%s: expected ~%d cycles (±6%%), measured %d" name expected
      actual

(* --- Vm ---------------------------------------------------------------- *)

let test_vm_create () =
  let vm = H.Vm.create ~domid:1 ~name:"test" ~pcpus:[ 4; 5; 6; 7 ] in
  Alcotest.(check int) "vcpus" 4 (H.Vm.num_vcpus vm);
  Alcotest.(check int) "pinning" 6 (H.Vm.vcpu vm 2).H.Vm.pcpu;
  Alcotest.check_raises "duplicate pins"
    (Invalid_argument "Vm.create: duplicate PCPU in pin set") (fun () ->
      ignore (H.Vm.create ~domid:1 ~name:"bad" ~pcpus:[ 0; 0 ]));
  Alcotest.check_raises "no pcpus" (Invalid_argument "Vm.create: no PCPUs")
    (fun () -> ignore (H.Vm.create ~domid:1 ~name:"bad" ~pcpus:[]))

let test_vm_memory () =
  let vm = H.Vm.create ~domid:1 ~name:"test" ~pcpus:[ 0 ] in
  H.Vm.map_memory vm ~pages:16 ~base_pa_page:100;
  Alcotest.(check int) "mapped" 16
    (Armvirt_mem.Stage2.mapping_count vm.H.Vm.stage2);
  let pa =
    Armvirt_mem.Stage2.translate vm.H.Vm.stage2
      (Armvirt_mem.Addr.ipa_of_page 5)
  in
  Alcotest.(check int) "layout" 105 (Armvirt_mem.Addr.pa_page pa)

(* --- remote_completion --------------------------------------------------- *)

let test_remote_completion_timing () =
  let m = arm_machine () in
  let elapsed =
    measure m (fun () ->
        Hypervisor.remote_completion m ~name:"remote"
          ~wire:(Cycles.of_int 400) (fun () ->
            Machine.spend (Machine.op m Other "remote.work") 600))
  in
  Alcotest.(check int) "wire + remote path" 1000 elapsed

(* --- KVM ARM ------------------------------------------------------------- *)

let test_kvm_arm_table2 () =
  let check name expected f =
    let kvm = H.Kvm_arm.create (arm_machine ()) in
    check_cycles name expected (measure (H.Kvm_arm.machine kvm) (fun () -> f kvm))
  in
  check "hypercall" 6500 H.Kvm_arm.hypercall;
  check "interrupt controller trap" 7370 H.Kvm_arm.interrupt_controller_trap;
  check "virtual irq completion" 71 H.Kvm_arm.virtual_irq_completion;
  check "vm switch" 10387 H.Kvm_arm.vm_switch

let test_kvm_arm_latencies () =
  let kvm = H.Kvm_arm.create (arm_machine ()) in
  let m = H.Kvm_arm.machine kvm in
  check_cycles "virtual IPI" 11557
    (measure_latency m (fun () -> H.Kvm_arm.virtual_ipi kvm));
  let kvm = H.Kvm_arm.create (arm_machine ()) in
  let m = H.Kvm_arm.machine kvm in
  check_cycles "io latency out" 6024
    (measure_latency m (fun () -> H.Kvm_arm.io_latency_out kvm));
  let kvm = H.Kvm_arm.create (arm_machine ()) in
  let m = H.Kvm_arm.machine kvm in
  check_cycles "io latency in" 13872
    (measure_latency m (fun () -> H.Kvm_arm.io_latency_in kvm))

let test_kvm_arm_breakdown_is_table3 () =
  let kvm = H.Kvm_arm.create (arm_machine ()) in
  let rows = H.Kvm_arm.hypercall_breakdown kvm in
  Alcotest.(check int) "seven rows" 7 (List.length rows);
  let vgic =
    List.find (fun (cls, _, _) -> cls = Reg_class.Vgic) rows
  in
  (match vgic with
  | _, 3250, 181 -> ()
  | _, s, r -> Alcotest.failf "VGIC row mismatch: %d/%d" s r);
  let total_save = List.fold_left (fun acc (_, s, _) -> acc + s) 0 rows in
  let total_restore = List.fold_left (fun acc (_, _, r) -> acc + r) 0 rows in
  Alcotest.(check int) "save total" 4202 total_save;
  Alcotest.(check int) "restore total" 1506 total_restore

let test_kvm_arm_save_dominates_hypercall () =
  (* Section IV: "saving and restoring this state accounts for almost
     all of the Hypercall time". *)
  let kvm = H.Kvm_arm.create (arm_machine ()) in
  let m = H.Kvm_arm.machine kvm in
  let total = measure m (fun () -> H.Kvm_arm.hypercall kvm) in
  Alcotest.(check bool) "state switch > 85% of hypercall" true
    (float_of_int (4202 + 1506) /. float_of_int total > 0.85)

let test_kvm_arm_profile () =
  let kvm = H.Kvm_arm.create (arm_machine ()) in
  let p = H.Kvm_arm.io_profile kvm in
  Alcotest.(check bool) "zero copy (host sees VM memory)" true
    p.Io_profile.zero_copy;
  Alcotest.(check int) "no grant machinery" 0 p.Io_profile.rx_grant_per_packet;
  Alcotest.(check int) "ARM hw completion" 71 p.Io_profile.virq_completion;
  Alcotest.(check bool) "physical driver always resident" true
    (p.Io_profile.phys_rx_extra_latency = 0)

(* --- KVM ARM + VHE --------------------------------------------------------- *)

let test_vhe_transitions_cheap () =
  let vhe = H.Kvm_arm.create (arm_machine ~vhe:true ()) in
  Alcotest.(check bool) "vhe detected" true (H.Kvm_arm.vhe vhe);
  let m = H.Kvm_arm.machine vhe in
  let hypercall = measure m (fun () -> H.Kvm_arm.hypercall vhe) in
  (* Section VI: more than an order of magnitude below split-mode. *)
  Alcotest.(check bool) "10x hypercall speedup" true (hypercall * 10 <= 6500);
  let vhe = H.Kvm_arm.create (arm_machine ~vhe:true ()) in
  let m = H.Kvm_arm.machine vhe in
  let io_out = measure_latency m (fun () -> H.Kvm_arm.io_latency_out vhe) in
  Alcotest.(check bool) "10x io-out speedup" true (io_out * 10 <= 6024)

let test_vhe_skips_el1_switch () =
  let vhe = H.Kvm_arm.create (arm_machine ~vhe:true ()) in
  let m = H.Kvm_arm.machine vhe in
  ignore (measure m (fun () -> H.Kvm_arm.hypercall vhe));
  let counters = Machine.counters m in
  Alcotest.(check int) "no VGIC read-back under VHE" 0
    (Armvirt_stats.Counter.get counters "arm.save.VGIC Regs");
  Alcotest.(check int) "no stage-2 toggles under VHE" 0
    (Armvirt_stats.Counter.get counters "arm.stage2_toggle")

let test_vhe_name () =
  let vhe = H.Kvm_arm.create (arm_machine ~vhe:true ()) in
  Alcotest.(check string) "name marks VHE" "KVM ARM (VHE)"
    (H.Kvm_arm.to_hypervisor vhe).Hypervisor.name

(* --- Xen ARM ---------------------------------------------------------------- *)

let test_xen_arm_table2 () =
  let check name expected f =
    let xen = H.Xen_arm.create (arm_machine ()) in
    check_cycles name expected (measure (H.Xen_arm.machine xen) (fun () -> f xen))
  in
  check "hypercall" 376 H.Xen_arm.hypercall;
  check "interrupt controller trap" 1356 H.Xen_arm.interrupt_controller_trap;
  check "virtual irq completion" 71 H.Xen_arm.virtual_irq_completion;
  check "vm switch" 8799 H.Xen_arm.vm_switch

let test_xen_arm_latencies () =
  let xen = H.Xen_arm.create (arm_machine ()) in
  check_cycles "virtual IPI" 5978
    (measure_latency (H.Xen_arm.machine xen) (fun () ->
         H.Xen_arm.virtual_ipi xen));
  let xen = H.Xen_arm.create (arm_machine ()) in
  check_cycles "io latency out" 16491
    (measure_latency (H.Xen_arm.machine xen) (fun () ->
         H.Xen_arm.io_latency_out xen));
  let xen = H.Xen_arm.create (arm_machine ()) in
  check_cycles "io latency in" 15650
    (measure_latency (H.Xen_arm.machine xen) (fun () ->
         H.Xen_arm.io_latency_in xen))

let test_xen_arm_shared_pinning_worse () =
  (* Section IV: "pinning both the VM and Dom0 to the same physical CPU
     or not specifying any pinning resulted in similar or worse
     results". *)
  let sep = H.Xen_arm.create ~pinning:H.Xen_arm.Separate (arm_machine ()) in
  let sep_out =
    measure_latency (H.Xen_arm.machine sep) (fun () ->
        H.Xen_arm.io_latency_out sep)
  in
  let shared = H.Xen_arm.create ~pinning:H.Xen_arm.Shared (arm_machine ()) in
  let shared_out =
    measure_latency (H.Xen_arm.machine shared) (fun () ->
        H.Xen_arm.io_latency_out shared)
  in
  Alcotest.(check bool) "shared pinning is no better" true
    (shared_out >= sep_out)

let test_xen_arm_profile () =
  let xen = H.Xen_arm.create (arm_machine ()) in
  let p = H.Xen_arm.io_profile xen in
  Alcotest.(check bool) "no zero copy" false p.Io_profile.zero_copy;
  Alcotest.(check bool) "grant copy > 3us (7200 cycles)" true
    (p.Io_profile.rx_grant_per_packet >= 7200);
  Alcotest.(check bool) "Dom0 wake latency on physical rx" true
    (p.Io_profile.phys_rx_extra_latency > 0);
  let zc = H.Xen_arm.io_profile_zero_copy xen in
  Alcotest.(check bool) "hypothetical zero copy is cheaper" true
    (zc.Io_profile.rx_grant_per_packet < p.Io_profile.rx_grant_per_packet);
  Alcotest.(check bool) "zero copy flag" true zc.Io_profile.zero_copy

let test_xen_vs_kvm_structure () =
  (* The paper's headline: Xen's transition is an order of magnitude
     cheaper, yet its I/O latency is far worse. *)
  let xen = H.Xen_arm.create (arm_machine ()) in
  let xen_hc =
    measure (H.Xen_arm.machine xen) (fun () -> H.Xen_arm.hypercall xen)
  in
  let kvm = H.Kvm_arm.create (arm_machine ()) in
  let kvm_hc =
    measure (H.Kvm_arm.machine kvm) (fun () -> H.Kvm_arm.hypercall kvm)
  in
  Alcotest.(check bool) "Xen hypercall 10x cheaper" true (xen_hc * 10 <= kvm_hc);
  let xen = H.Xen_arm.create (arm_machine ()) in
  let xen_out =
    measure_latency (H.Xen_arm.machine xen) (fun () ->
        H.Xen_arm.io_latency_out xen)
  in
  let kvm = H.Kvm_arm.create (arm_machine ()) in
  let kvm_out =
    measure_latency (H.Kvm_arm.machine kvm) (fun () ->
        H.Kvm_arm.io_latency_out kvm)
  in
  Alcotest.(check bool) "but Xen I/O out is much worse" true
    (xen_out > 2 * kvm_out)

(* --- x86 --------------------------------------------------------------------- *)

let test_x86_hypercalls_similar () =
  (* Same hardware mechanism on both x86 hypervisors (section IV). *)
  let kvm = H.Kvm_x86.create (x86_machine ()) in
  let kvm_hc =
    measure (H.Kvm_x86.machine kvm) (fun () -> H.Kvm_x86.hypercall kvm)
  in
  let xen = H.Xen_x86.create (x86_machine ()) in
  let xen_hc =
    measure (H.Xen_x86.machine xen) (fun () -> H.Xen_x86.hypercall xen)
  in
  check_cycles "KVM x86 hypercall" 1300 kvm_hc;
  check_cycles "Xen x86 hypercall" 1228 xen_hc;
  Alcotest.(check bool) "within 10% of each other" true
    (within 10.0 kvm_hc xen_hc)

let test_x86_eoi_traps () =
  let kvm = H.Kvm_x86.create (x86_machine ()) in
  check_cycles "EOI trap" 1556
    (measure (H.Kvm_x86.machine kvm) (fun () ->
         H.Kvm_x86.virtual_irq_completion kvm))

let test_x86_io_out_is_exit_only () =
  (* Section IV: the x86 kick endpoint is inside the host — about 40% of
     the hypercall cost. *)
  let kvm = H.Kvm_x86.create (x86_machine ()) in
  check_cycles "io out" 560
    (measure_latency (H.Kvm_x86.machine kvm) (fun () ->
         H.Kvm_x86.io_latency_out kvm))

let test_xen_x86_breakeven () =
  let xen = H.Xen_x86.create (x86_machine ()) in
  let break_even = H.Xen_x86.zero_copy_break_even_bytes xen ~cpus:8 in
  (* Mapping + 8-CPU shootdown only pays off for large transfers: the
     reason zero copy was abandoned on Xen x86 (section V). *)
  Alcotest.(check bool) "break-even beyond an MTU" true (break_even > 1500)

(* --- Profile/path consistency --------------------------------------------------- *)

(* The application models consume Io_profile; the microbenchmarks run the
   simulated paths. The two must tell the same story: on every model a
   profile's notify_latency is the simulated I/O Latency Out exactly, and
   Xen ARM's irq_delivery_latency its I/O Latency In. io_profile.mli says
   why the other models' delivery differs; each path runs on a fresh
   model. *)
let test_profiles_match_paths () =
  let x86 = Cost_model.x86_default in
  List.iter
    (fun (make, delivery_gap) ->
      let path f =
        let hyp : Hypervisor.t = make () in
        (hyp, measure_latency hyp.machine (fun () -> f hyp))
      in
      let hyp, out = path (fun h -> h.Hypervisor.io_latency_out ()) in
      let _, in_ = path (fun h -> h.Hypervisor.io_latency_in ()) in
      let p = hyp.io_profile in
      Alcotest.(check int) (hyp.name ^ " notify = I/O Latency Out") out
        p.Io_profile.notify_latency;
      match delivery_gap with
      | Some gap ->
          Alcotest.(check int)
            (Printf.sprintf "%s irq delivery + %d = I/O Latency In" hyp.name gap)
            in_
            (p.Io_profile.irq_delivery_latency + gap)
      | None ->
          (* KVM prices a running VCPU; the microbenchmark wakes a blocked
             one. *)
          Alcotest.(check bool)
            (Printf.sprintf "%s irq delivery %d < I/O Latency In %d" hyp.name
               p.Io_profile.irq_delivery_latency in_)
            true
            (p.Io_profile.irq_delivery_latency < in_))
    [
      ( (fun () ->
          H.Kvm_arm.to_hypervisor (H.Kvm_arm.create (arm_machine ()))),
        None );
      ( (fun () ->
          H.Kvm_arm.to_hypervisor (H.Kvm_arm.create (arm_machine ~vhe:true ()))),
        None );
      ( (fun () -> H.Xen_arm.to_hypervisor (H.Xen_arm.create (arm_machine ()))),
        Some 0 );
      ( (fun () -> H.Kvm_x86.to_hypervisor (H.Kvm_x86.create (x86_machine ()))),
        None );
      ( (fun () -> H.Xen_x86.to_hypervisor (H.Xen_x86.create (x86_machine ()))),
        Some x86.Cost_model.virq_guest_dispatch );
    ]

let test_profile_completion_matches_path () =
  let kvm86 = H.Kvm_x86.create (x86_machine ()) in
  let profile = H.Kvm_x86.io_profile kvm86 in
  let eoi =
    measure (H.Kvm_x86.machine kvm86) (fun () ->
        H.Kvm_x86.virtual_irq_completion kvm86)
  in
  Alcotest.(check int) "x86 EOI profile = path" eoi
    profile.Io_profile.virq_completion;
  let xen = H.Xen_arm.create (arm_machine ()) in
  let profile = H.Xen_arm.io_profile xen in
  let eoi =
    measure (H.Xen_arm.machine xen) (fun () ->
        H.Xen_arm.virtual_irq_completion xen)
  in
  Alcotest.(check int) "ARM completion profile = path" eoi
    profile.Io_profile.virq_completion

(* --- Native ------------------------------------------------------------------- *)

let test_native_is_free () =
  let native = H.Native.create (arm_machine ()) in
  let hyp = H.Native.to_hypervisor native in
  let m = hyp.Hypervisor.machine in
  Alcotest.(check int) "hypercall free" 0
    (measure m (fun () -> hyp.Hypervisor.hypercall ()));
  Alcotest.(check bool) "profile all zero" true
    (hyp.Hypervisor.io_profile = Io_profile.native)

(* --- What every model publishes ------------------------------------------ *)

(* Each model as the rest of the simulator sees it, with its kind, its
   hypercall exit->entry sum and the guest's cost of issuing the call. *)
let published () =
  let arm = Cost_model.arm_default and vhe = Cost_model.arm_vhe in
  let x86 = Cost_model.x86_default in
  [
    ( H.Kvm_arm.to_hypervisor (H.Kvm_arm.create (arm_machine ~vhe:true ())),
      Hypervisor.Type2, 626, vhe.Cost_model.hvc_issue );
    ( H.Kvm_arm.to_hypervisor (H.Kvm_arm.create (arm_machine ())),
      Hypervisor.Type2, 6484, arm.Cost_model.hvc_issue );
    ( H.Xen_arm.to_hypervisor (H.Xen_arm.create (arm_machine ())),
      Hypervisor.Type1, 360, arm.Cost_model.hvc_issue );
    ( H.Kvm_x86.to_hypervisor (H.Kvm_x86.create (x86_machine ())),
      Hypervisor.Type2, 1280, x86.Cost_model.vmcall_issue );
    ( H.Xen_x86.to_hypervisor (H.Xen_x86.create (x86_machine ())),
      Hypervisor.Type1, 1208, x86.Cost_model.vmcall_issue );
    ( H.Native.to_hypervisor (H.Native.create (arm_machine ())),
      Hypervisor.Native, 0, 0 );
  ]

let test_kinds () =
  List.iter
    (fun ((hyp : Hypervisor.t), kind, _, _) ->
      Alcotest.(check bool) (hyp.name ^ " kind") true (hyp.kind = kind))
    (published ())

(* The sum each model publishes from its own path costs is the distance
   its simulated hypercall spends between the exit and entry markers:
   adding back the guest's issue cost gives the whole call. *)
let test_hypercall_exit_entry () =
  List.iter
    (fun ((hyp : Hypervisor.t), _, sum, issue) ->
      Alcotest.(check int) (hyp.name ^ " published sum") sum
        hyp.hypercall_exit_entry;
      Alcotest.(check int)
        (hyp.name ^ " sum + issue = simulated hypercall")
        (sum + issue)
        (measure hyp.machine (fun () -> hyp.hypercall ())))
    (published ())

let () =
  Alcotest.run "hypervisor"
    [
      ( "vm",
        [
          Alcotest.test_case "create" `Quick test_vm_create;
          Alcotest.test_case "memory" `Quick test_vm_memory;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "remote_completion timing" `Quick
            test_remote_completion_timing;
        ] );
      ( "kvm_arm",
        [
          Alcotest.test_case "Table II sync rows" `Quick test_kvm_arm_table2;
          Alcotest.test_case "Table II latencies" `Quick test_kvm_arm_latencies;
          Alcotest.test_case "Table III breakdown" `Quick
            test_kvm_arm_breakdown_is_table3;
          Alcotest.test_case "state switch dominates" `Quick
            test_kvm_arm_save_dominates_hypercall;
          Alcotest.test_case "io profile" `Quick test_kvm_arm_profile;
        ] );
      ( "kvm_arm_vhe",
        [
          Alcotest.test_case "transitions cheap" `Quick test_vhe_transitions_cheap;
          Alcotest.test_case "skips EL1 switch" `Quick test_vhe_skips_el1_switch;
          Alcotest.test_case "name" `Quick test_vhe_name;
        ] );
      ( "xen_arm",
        [
          Alcotest.test_case "Table II sync rows" `Quick test_xen_arm_table2;
          Alcotest.test_case "Table II latencies" `Quick test_xen_arm_latencies;
          Alcotest.test_case "shared pinning no better" `Quick
            test_xen_arm_shared_pinning_worse;
          Alcotest.test_case "io profile" `Quick test_xen_arm_profile;
          Alcotest.test_case "fast traps, slow I/O" `Quick
            test_xen_vs_kvm_structure;
        ] );
      ( "x86",
        [
          Alcotest.test_case "hypercalls similar" `Quick
            test_x86_hypercalls_similar;
          Alcotest.test_case "EOI traps" `Quick test_x86_eoi_traps;
          Alcotest.test_case "io out is exit only" `Quick
            test_x86_io_out_is_exit_only;
          Alcotest.test_case "zero-copy break-even" `Quick test_xen_x86_breakeven;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "profiles match paths" `Quick
            test_profiles_match_paths;
          Alcotest.test_case "completion matches path" `Quick
            test_profile_completion_matches_path;
        ] );
      ("native", [ Alcotest.test_case "free" `Quick test_native_is_free ]);
      ( "published",
        [
          Alcotest.test_case "kind" `Quick test_kinds;
          Alcotest.test_case "hypercall exit->entry sum" `Quick
            test_hypercall_exit_entry;
        ] );
    ]
