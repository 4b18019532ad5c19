(* Tests for the ESR exception classes and their integration into the
   KVM ARM exit dispatcher's per-reason counters. *)

module Sim = Armvirt_engine.Sim
module Machine = Armvirt_arch.Machine
module Cost_model = Armvirt_arch.Cost_model
module Counter = Armvirt_stats.Counter
module Esr = Armvirt_arch.Esr
module H = Armvirt_hypervisor

let test_ec_encodings () =
  (* The architectural EC values (ARM ARM D17.2.37). *)
  Alcotest.(check int) "WFI/WFE" 0x01 (Esr.ec Esr.Wfi_wfe);
  Alcotest.(check int) "HVC64" 0x16 (Esr.ec Esr.Hvc64);
  Alcotest.(check int) "SMC64" 0x17 (Esr.ec Esr.Smc64);
  Alcotest.(check int) "sysreg" 0x18 (Esr.ec Esr.Sysreg_trap);
  Alcotest.(check int) "inst abort" 0x20 (Esr.ec Esr.Inst_abort_lower);
  Alcotest.(check int) "data abort" 0x24 (Esr.ec Esr.Data_abort_lower)

let test_of_ec () =
  Alcotest.(check bool) "unknown EC rejected" true (Esr.of_ec 0 = None);
  Alcotest.(check bool) "of_ec inverts ec" true
    (List.for_all (fun cls -> Esr.of_ec (Esr.ec cls) = Some cls) Esr.all)

let prop_ec_distinct =
  QCheck.Test.make ~name:"distinct classes never collide"
    QCheck.(pair (int_bound 6) (int_bound 6))
    (fun (i, j) ->
      let a = List.nth Esr.all i and b = List.nth Esr.all j in
      Esr.ec a land lnot 0x3f = 0 && (i = j || Esr.ec a <> Esr.ec b))

let test_marker_parity () =
  (* Exit rows are keyed by the obs-side reason enum: Esr.marker_reason
     must map the arch-side classes onto it one to one, in order. *)
  let module Marker = Armvirt_obs.Marker in
  Alcotest.(check (list string))
    "the reason enums cover the same set in the same order"
    (List.map Marker.reason_to_string Marker.all_reasons)
    (List.map (fun cls -> Marker.reason_to_string (Esr.marker_reason cls)) Esr.all);
  (* Labels keep the legacy bytes — the STAT_baseline goldens and the
     trace exports depend on them. *)
  let label = Marker.label in
  Alcotest.(check string) "exit label" "kvm_arm.exit/hvc/p3"
    (label (Marker.exit ~hyp:"kvm_arm" ~reason:Marker.Hvc ~pcpu:3));
  Alcotest.(check string) "entry label" "xen_arm.entry/p2/d7"
    (label (Marker.entry ~hyp:"xen_arm" ~pcpu:2 ~domid:7 ()));
  Alcotest.(check string) "entry without domain" "kvm_x86.entry/p0"
    (label (Marker.entry ~hyp:"kvm_x86" ~pcpu:0 ()));
  Alcotest.(check string) "op label" "kvm_arm.hypercall"
    (label (Marker.op ~hyp:"kvm_arm" Trap "hypercall"));
  Alcotest.(check string) "port label" "vswitch.s0/p4/rx"
    (label (Marker.port ~switch:"s0" ~port:4 Marker.Rx));
  Alcotest.(check string) "flood label" "vswitch.s0/flood"
    (label (Marker.flood ~switch:"s0"));
  Alcotest.(check string) "uplink label" "wire.s0-u1/tx"
    (label (Marker.uplink ~switch:"s0" ~uplink:1 Marker.Tx));
  Alcotest.check_raises "bad hypervisor name rejected"
    (Invalid_argument
       "Marker: hypervisor \"Bad.Hyp\" is not a lowercase identifier")
    (fun () -> ignore (Marker.entry ~hyp:"Bad.Hyp" ~pcpu:0 ()));
  Alcotest.check_raises "uplinks have no drop counter"
    (Invalid_argument "Marker.uplink: wires carry rx/tx only")
    (fun () -> ignore (Marker.uplink ~switch:"s0" ~uplink:0 Marker.Drop))

let test_exit_reason_counters () =
  let machine =
    Machine.create (Sim.create ())
      ~cost:(Cost_model.Arm Cost_model.arm_default) ~num_cpus:8
  in
  let kvm = H.Kvm_arm.create machine in
  Sim.spawn (Machine.sim machine) ~name:"driver" (fun () ->
      H.Kvm_arm.hypercall kvm;
      H.Kvm_arm.hypercall kvm;
      H.Kvm_arm.interrupt_controller_trap kvm;
      ignore (H.Kvm_arm.io_latency_out kvm));
  Sim.run (Machine.sim machine);
  let counters = Machine.counters machine in
  (* Exit markers are keyed per PCPU; all these paths run on VCPU0's
     PCPU 4. *)
  let reason cls =
    Counter.get counters
      (Armvirt_obs.Marker.label
         (Armvirt_obs.Marker.exit ~hyp:"kvm_arm" ~reason:(Esr.marker_reason cls)
            ~pcpu:4))
  in
  Alcotest.(check int) "two hypercall exits" 2 (reason Esr.Hvc64);
  Alcotest.(check int) "two MMIO exits (GIC access + kick)" 2
    (reason Esr.Data_abort_lower);
  Alcotest.(check int) "no IRQ exits in these paths" 0 (reason Esr.Irq);
  Alcotest.(check int) "every exit re-entered" 4
    (Counter.get counters
       (Armvirt_obs.Marker.label
          (Armvirt_obs.Marker.entry ~hyp:"kvm_arm" ~pcpu:4 ~domid:1 ())))

let () =
  Alcotest.run "esr"
    [
      ( "esr",
        [
          Alcotest.test_case "EC encodings" `Quick test_ec_encodings;
          Alcotest.test_case "of_ec" `Quick test_of_ec;
          QCheck_alcotest.to_alcotest prop_ec_distinct;
          Alcotest.test_case "marker parity" `Quick test_marker_parity;
          Alcotest.test_case "exit-reason counters" `Quick
            test_exit_reason_counters;
        ] );
    ]
