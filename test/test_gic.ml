(* Tests for Armvirt_gic: IRQ classification, the distributor, the
   hardware virtual CPU interface (list registers) and the x86 APIC. *)

module Irq = Armvirt_gic.Irq
module Distributor = Armvirt_gic.Distributor
module Vgic = Armvirt_gic.Vgic
module Apic = Armvirt_gic.Apic

(* --- Irq ------------------------------------------------------------ *)

let test_irq_kinds () =
  Alcotest.(check bool) "SGI" true (Irq.kind 0 = Irq.Sgi);
  Alcotest.(check bool) "SGI upper" true (Irq.kind 15 = Irq.Sgi);
  Alcotest.(check bool) "PPI" true (Irq.kind 27 = Irq.Ppi);
  Alcotest.(check bool) "SPI" true (Irq.kind 32 = Irq.Spi);
  Alcotest.(check bool) "SPI upper" true (Irq.kind 1019 = Irq.Spi);
  Alcotest.(check bool) "virtual timer is PPI 27" true
    (Irq.virtual_timer = 27 && Irq.kind Irq.virtual_timer = Irq.Ppi);
  Alcotest.(check bool) "maintenance is PPI" true
    (Irq.kind Irq.maintenance = Irq.Ppi);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Irq.kind: id out of range") (fun () ->
      ignore (Irq.kind 1020))

(* --- Distributor ----------------------------------------------------- *)

let dist () = Distributor.create ~num_cpus:4

let test_dist_sgi_lifecycle () =
  let d = dist () in
  Distributor.enable d 1;
  Distributor.send_sgi d 1 ~from:0 ~targets:[ 2 ];
  Alcotest.(check bool) "pending on target" true
    (Distributor.state d 1 ~cpu:2 = Distributor.Pending);
  Alcotest.(check bool) "not pending elsewhere" true
    (Distributor.state d 1 ~cpu:0 = Distributor.Inactive);
  Alcotest.(check bool) "ack" true (Distributor.acknowledge d ~cpu:2 = Some 1);
  Alcotest.(check bool) "active" true
    (Distributor.state d 1 ~cpu:2 = Distributor.Active);
  Distributor.end_of_interrupt d 1 ~cpu:2;
  Alcotest.(check bool) "inactive" true
    (Distributor.state d 1 ~cpu:2 = Distributor.Inactive)

let test_dist_disabled_not_delivered () =
  let d = dist () in
  Distributor.send_sgi d 1 ~from:1 ~targets:[ 0 ] (* pending but disabled *);
  Alcotest.(check bool) "no ack while disabled" true
    (Distributor.acknowledge d ~cpu:0 = None);
  Distributor.enable d 1;
  Alcotest.(check bool) "delivered once enabled" true
    (Distributor.acknowledge d ~cpu:0 = Some 1)

let test_dist_lowest_first () =
  let d = dist () in
  List.iter
    (fun irq ->
      Distributor.enable d irq;
      Distributor.send_sgi d irq ~from:1 ~targets:[ 0 ])
    [ 3; 1 ];
  Alcotest.(check bool) "lowest IRQ first" true
    (Distributor.acknowledge d ~cpu:0 = Some 1);
  Alcotest.(check bool) "then the next" true
    (Distributor.acknowledge d ~cpu:0 = Some 3)

let test_dist_sgi_multicast () =
  let d = dist () in
  Distributor.enable d 1;
  Distributor.send_sgi d 1 ~from:0 ~targets:[ 1; 2 ];
  let pending cpu = Distributor.state d 1 ~cpu = Distributor.Pending in
  Alcotest.(check bool) "pending on cpu1" true (pending 1);
  Alcotest.(check bool) "pending on cpu2" true (pending 2);
  Alcotest.(check bool) "sender unaffected" false (pending 0)

let test_dist_active_pending () =
  let d = dist () in
  Distributor.enable d 5;
  Distributor.send_sgi d 5 ~from:1 ~targets:[ 0 ];
  ignore (Distributor.acknowledge d ~cpu:0);
  Distributor.send_sgi d 5 ~from:1 ~targets:[ 0 ];
  Alcotest.(check bool) "active+pending" true
    (Distributor.state d 5 ~cpu:0 = Distributor.Active_pending);
  Distributor.end_of_interrupt d 5 ~cpu:0;
  Alcotest.(check bool) "back to pending" true
    (Distributor.state d 5 ~cpu:0 = Distributor.Pending)

let test_dist_errors () =
  let d = dist () in
  Alcotest.check_raises "EOI of inactive"
    (Invalid_argument "Distributor.end_of_interrupt: interrupt not active")
    (fun () -> Distributor.end_of_interrupt d 1 ~cpu:0);
  Alcotest.check_raises "only SGIs are sent"
    (Invalid_argument "Distributor.send_sgi: not an SGI") (fun () ->
      Distributor.send_sgi d 27 ~from:0 ~targets:[ 1 ]);
  Alcotest.check_raises "GICv2 CPU limit"
    (Invalid_argument "Distributor.create: num_cpus must be in 1-8") (fun () ->
      ignore (Distributor.create ~num_cpus:9))

(* --- Vgic ------------------------------------------------------------ *)

let test_vgic_inject_ack_complete () =
  let v = Vgic.create () in
  Vgic.inject v 48;
  Alcotest.(check (list int)) "pending" [ 48 ] (Vgic.pending v);
  Alcotest.(check bool) "ack" true (Vgic.acknowledge v = Some 48);
  Alcotest.(check (list int)) "active" [ 48 ] (Vgic.active v);
  Vgic.complete v 48;
  Alcotest.(check int) "list registers free" 4 (Vgic.free_lrs v)

let test_vgic_merges_reinjection () =
  let v = Vgic.create () in
  Vgic.inject v 48;
  Vgic.inject v 48;
  Alcotest.(check int) "hardware merges" 1 (Vgic.resident v)

let test_vgic_overflow_and_queue () =
  let v = Vgic.create ~num_lrs:2 () in
  Vgic.inject v 1;
  Vgic.inject v 2;
  (match Vgic.inject v 3 with
  | () -> Alcotest.fail "expected Overflow"
  | exception Vgic.Overflow -> ());
  Vgic.inject_or_queue v 3;
  Alcotest.(check bool) "maintenance needed" true (Vgic.maintenance_needed v);
  Alcotest.(check (list int)) "queued" [ 3 ] (Vgic.overflow_queue v);
  (* Guest drains one, hypervisor refills from the queue. *)
  ignore (Vgic.acknowledge v);
  Vgic.complete v 1;
  Vgic.drain_overflow v;
  Alcotest.(check bool) "queue drained" false (Vgic.maintenance_needed v);
  Alcotest.(check int) "LR occupied again" 2 (Vgic.resident v)

let test_vgic_complete_errors () =
  let v = Vgic.create () in
  Alcotest.check_raises "complete non-resident"
    (Invalid_argument "Vgic.complete: interrupt not active") (fun () ->
      Vgic.complete v 7);
  Vgic.inject v 7;
  Alcotest.check_raises "complete pending (not acked)"
    (Invalid_argument "Vgic.complete: interrupt not active") (fun () ->
      Vgic.complete v 7)

let prop_vgic_resident_bounded =
  QCheck.Test.make ~name:"resident LRs never exceed num_lrs"
    QCheck.(list (int_range 32 64))
    (fun irqs ->
      let v = Vgic.create ~num_lrs:4 () in
      List.iter (Vgic.inject_or_queue v) irqs;
      Vgic.resident v <= 4)

let prop_vgic_no_duplicates =
  QCheck.Test.make ~name:"an IRQ is never resident twice"
    QCheck.(list (int_range 32 40))
    (fun irqs ->
      let v = Vgic.create ~num_lrs:8 () in
      List.iter (Vgic.inject_or_queue v) irqs;
      let resident = Vgic.pending v @ Vgic.active v in
      List.length resident = List.length (List.sort_uniq Int.compare resident))

(* --- Apic ------------------------------------------------------------ *)

let test_apic_lifecycle () =
  let a = Apic.create () in
  Apic.fire a ~vector:64;
  Apic.fire a ~vector:200;
  Alcotest.(check bool) "highest vector first" true
    (Apic.acknowledge a = Some 200);
  Alcotest.(check (list int)) "in service" [ 200 ] (Apic.in_service a);
  Alcotest.(check bool) "next vector" true (Apic.acknowledge a = Some 64);
  Alcotest.(check (list int)) "nested, highest first" [ 200; 64 ]
    (Apic.in_service a);
  Alcotest.(check bool) "nothing requested" true (Apic.acknowledge a = None)

let test_apic_nesting () =
  (* A higher vector taken while one is in service nests above it; a
     lower one requested meanwhile waits for the next acknowledge. *)
  let a = Apic.create () in
  Apic.fire a ~vector:100;
  ignore (Apic.acknowledge a);
  Apic.fire a ~vector:150;
  Apic.fire a ~vector:40;
  Alcotest.(check (option int)) "higher vector first" (Some 150)
    (Apic.acknowledge a);
  Alcotest.(check (list int)) "nested, highest first" [ 150; 100 ]
    (Apic.in_service a);
  Alcotest.(check (option int)) "then the lower one" (Some 40)
    (Apic.acknowledge a);
  Alcotest.(check (list int)) "all three in service" [ 150; 100; 40 ]
    (Apic.in_service a)

let test_apic_errors () =
  let a = Apic.create () in
  Alcotest.check_raises "vector range"
    (Invalid_argument "Apic.fire: vector must be in 32-255") (fun () ->
      Apic.fire a ~vector:31)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gic"
    [
      ("irq", [ Alcotest.test_case "kinds" `Quick test_irq_kinds ]);
      ( "distributor",
        [
          Alcotest.test_case "SGI lifecycle" `Quick test_dist_sgi_lifecycle;
          Alcotest.test_case "disabled not delivered" `Quick
            test_dist_disabled_not_delivered;
          Alcotest.test_case "lowest first" `Quick test_dist_lowest_first;
          Alcotest.test_case "SGI multicast" `Quick test_dist_sgi_multicast;
          Alcotest.test_case "active+pending" `Quick test_dist_active_pending;
          Alcotest.test_case "errors" `Quick test_dist_errors;
        ] );
      ( "vgic",
        [
          Alcotest.test_case "inject/ack/complete" `Quick
            test_vgic_inject_ack_complete;
          Alcotest.test_case "merges reinjection" `Quick
            test_vgic_merges_reinjection;
          Alcotest.test_case "overflow and queue" `Quick
            test_vgic_overflow_and_queue;
          Alcotest.test_case "complete errors" `Quick test_vgic_complete_errors;
        ]
        @ qcheck [ prop_vgic_resident_bounded; prop_vgic_no_duplicates ] );
      ( "apic",
        [
          Alcotest.test_case "lifecycle" `Quick test_apic_lifecycle;
          Alcotest.test_case "nesting" `Quick test_apic_nesting;
          Alcotest.test_case "errors" `Quick test_apic_errors;
        ] );
    ]
