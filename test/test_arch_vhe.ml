(* Tests for the GICv3 cost-model variants. *)

module Cost_model = Armvirt_arch.Cost_model
module Reg_class = Armvirt_arch.Reg_class
module Experiment = Armvirt_core.Experiment

(* --- GICv3 cost model ------------------------------------------------- *)

let test_gicv3_vgic_cheap () =
  let v2 = (Cost_model.arm_default.Cost_model.reg Reg_class.Vgic).Cost_model.save in
  let v3 = (Cost_model.arm_gicv3.Cost_model.reg Reg_class.Vgic).Cost_model.save in
  Alcotest.(check int) "GICv2 save is Table III's 3250" 3250 v2;
  Alcotest.(check bool) "GICv3 collapses it" true (v3 < 300);
  (* Other classes untouched. *)
  Alcotest.(check int) "GP unchanged" 152
    (Cost_model.arm_gicv3.Cost_model.reg Reg_class.Gp).Cost_model.save

let test_gicv3_experiment_shape () =
  let groups = Experiment.gicv3 () in
  Alcotest.(check int) "five configurations" 5 (List.length groups);
  let row label op = List.assoc op (List.assoc label groups) in
  (* GICv3 roughly halves KVM's hypercall (the VGIC save was ~half). *)
  let v2 = row "KVM, GICv2 (measured)" "Hypercall" in
  let v3 = row "KVM, GICv3" "Hypercall" in
  Alcotest.(check bool) "GICv3 cuts KVM hypercall deeply" true
    (v3 < (v2 * 6 / 10));
  (* Xen's hypercall never touched the vGIC: unchanged. *)
  Alcotest.(check int) "Xen hypercall unchanged"
    (row "Xen, GICv2 (measured)" "Hypercall")
    (row "Xen, GICv3" "Hypercall");
  (* The endgame config approaches Type 1 costs. *)
  let endgame = row "KVM, GICv3 + VHE" "Hypercall" in
  Alcotest.(check bool) "GICv3+VHE within 2x of Xen" true
    (endgame <= 2 * row "Xen, GICv2 (measured)" "Hypercall");
  (* Hardware vIRQ completion is unaffected by all of it. *)
  List.iter
    (fun (label, rows) ->
      Alcotest.(check int)
        (label ^ " EOI still free")
        71
        (List.assoc "Virtual IRQ Completion" rows))
    groups

let () =
  Alcotest.run "arch_vhe"
    [
      ( "gicv3",
        [
          Alcotest.test_case "vgic class cheap" `Quick test_gicv3_vgic_cheap;
          Alcotest.test_case "experiment shape" `Quick test_gicv3_experiment_shape;
        ] );
    ]
