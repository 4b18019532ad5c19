(* Tests for Armvirt_arch: register classes, the calibrated cost model,
   the machine abstraction and the ARM/x86 architectural operations. *)

module Cycles = Armvirt_engine.Cycles
module Sim = Armvirt_engine.Sim
module Counter = Armvirt_stats.Counter
module Reg_class = Armvirt_arch.Reg_class
module Cost_model = Armvirt_arch.Cost_model
module Exception_level = Armvirt_arch.Exception_level
module Machine = Armvirt_arch.Machine
module Arm_ops = Armvirt_arch.Arm_ops
module X86_ops = Armvirt_arch.X86_ops

let arm_machine ?(vhe = false) () =
  let sim = Sim.create () in
  let cost =
    Cost_model.Arm (if vhe then Cost_model.arm_vhe else Cost_model.arm_default)
  in
  Machine.create sim ~cost ~num_cpus:8

let x86_machine () =
  let sim = Sim.create () in
  Machine.create sim ~cost:(Cost_model.X86 Cost_model.x86_default) ~num_cpus:8

let in_process machine f =
  Sim.spawn (Machine.sim machine) ~name:"test" f;
  Sim.run (Machine.sim machine)

(* --- Reg_class ----------------------------------------------------- *)

let test_reg_class_sets () =
  Alcotest.(check int) "seven classes (Table III rows)" 7
    (List.length Reg_class.all);
  Alcotest.(check bool) "full switch covers all" true
    (Reg_class.full_world_switch = Reg_class.all);
  Alcotest.(check (list string)) "trap-only is GP" [ "GP Regs" ]
    (List.map Reg_class.to_string Reg_class.trap_only);
  Alcotest.(check bool) "vm-to-vm excludes EL2 classes" true
    (not (List.mem Reg_class.El2_config Reg_class.vm_to_vm_switch)
    && not (List.mem Reg_class.El2_virtual_memory Reg_class.vm_to_vm_switch))

(* --- Exception_level ------------------------------------------------ *)

let test_exception_levels () =
  Alcotest.(check bool) "EL2 is hyp" true (Exception_level.arm_is_hyp El2);
  Alcotest.(check bool) "EL1 is not" false (Exception_level.arm_is_hyp El1);
  Alcotest.(check bool) "EL2 > EL1" true
    (Exception_level.arm_more_privileged El2 El1);
  Alcotest.(check bool) "EL1 not > EL1" false
    (Exception_level.arm_more_privileged El1 El1);
  (* x86 root mode is orthogonal to rings: ring3 root is still hyp side. *)
  Alcotest.(check bool) "root/ring3 is hyp" true
    (Exception_level.x86_is_hyp { operation = Root; ring = Ring3 });
  Alcotest.(check bool) "non-root/ring0 is not" false
    (Exception_level.x86_is_hyp { operation = Non_root; ring = Ring0 })

(* --- Cost_model ----------------------------------------------------- *)

let test_table_iii_values () =
  let hw = Cost_model.arm_default in
  let check cls save restore =
    let c = hw.Cost_model.reg cls in
    Alcotest.(check int)
      (Reg_class.to_string cls ^ " save")
      save c.Cost_model.save;
    Alcotest.(check int)
      (Reg_class.to_string cls ^ " restore")
      restore c.Cost_model.restore
  in
  check Reg_class.Gp 152 184;
  check Reg_class.Fp 282 310;
  check Reg_class.El1_sys 230 511;
  check Reg_class.Vgic 3250 181;
  check Reg_class.Timer 104 106;
  check Reg_class.El2_config 92 107;
  check Reg_class.El2_virtual_memory 92 107

let test_full_switch_sums () =
  let hw = Cost_model.arm_default in
  (* The paper's Table III totals: 4,202 to save, 1,506 to restore. *)
  Alcotest.(check int) "full save" 4202 (Cost_model.arm_full_save hw);
  Alcotest.(check int) "full restore" 1506 (Cost_model.arm_full_restore hw)

let test_vgic_asymmetry () =
  (* The key asymmetry of section IV: saving (reading the GIC) costs far
     more than restoring. *)
  let hw = Cost_model.arm_default in
  let vgic = hw.Cost_model.reg Reg_class.Vgic in
  Alcotest.(check bool) "save >> restore" true
    (vgic.Cost_model.save > 10 * vgic.Cost_model.restore)

let test_copy_cost () =
  Alcotest.(check int) "zero bytes free" 0
    (Cost_model.copy_cost ~per_byte:0.25 ~bytes:0);
  Alcotest.(check int) "rounding" 250
    (Cost_model.copy_cost ~per_byte:0.25 ~bytes:1000);
  Alcotest.(check int) "minimum one cycle" 1
    (Cost_model.copy_cost ~per_byte:0.25 ~bytes:1);
  Alcotest.check_raises "negative"
    (Invalid_argument "Cost_model.copy_cost: negative size") (fun () ->
      ignore (Cost_model.copy_cost ~per_byte:0.25 ~bytes:(-1)))

let test_platform_frequencies () =
  Alcotest.(check (float 1e-9)) "ARM 2.4 GHz" 2.4
    (Cost_model.freq_ghz (Cost_model.Arm Cost_model.arm_default));
  Alcotest.(check (float 1e-9)) "x86 2.1 GHz" 2.1
    (Cost_model.freq_ghz (Cost_model.X86 Cost_model.x86_default));
  Alcotest.(check bool) "vhe flag" true Cost_model.arm_vhe.Cost_model.vhe;
  Alcotest.(check bool) "default no vhe" false
    Cost_model.arm_default.Cost_model.vhe

(* --- Machine -------------------------------------------------------- *)

let test_machine_spend_accounts () =
  let m = arm_machine () in
  in_process m (fun () ->
      Machine.spend m "test.op" 100;
      Machine.spend m "test.op" 20;
      Machine.count m "test.events");
  Alcotest.(check int) "label total" 120 (Counter.get (Machine.counters m) "test.op");
  Alcotest.(check int) "global cycles" 120
    (Counter.get (Machine.counters m) "cycles");
  Alcotest.(check int) "event count" 1
    (Counter.get (Machine.counters m) "test.events");
  Alcotest.(check int) "simulated time advanced" 120
    (Cycles.to_int (Sim.now (Machine.sim m)))

(* Cycle conservation in the accounting layer: every spend lands on its
   own label and on "cycles", and advances simulated time by as much. *)
let prop_spend_conserves_cycles =
  let labels = [| "step.a"; "step.b"; "step.c"; "step.d" |] in
  QCheck.Test.make ~name:"spend conserves cycles per label and in total"
    QCheck.(list (pair (int_bound 3) (int_bound 5000)))
    (fun spends ->
      let m = arm_machine () in
      in_process m (fun () ->
          List.iter (fun (i, n) -> Machine.spend m labels.(i) n) spends);
      let get = Counter.get (Machine.counters m) in
      let sum label =
        List.fold_left
          (fun acc (i, n) -> if labels.(i) = label then acc + n else acc)
          0 spends
      in
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 spends in
      Array.for_all (fun label -> get label = sum label) labels
      && get "cycles" = total
      && Cycles.to_int (Sim.now (Machine.sim m)) = total)

let test_machine_validation () =
  let sim = Sim.create () in
  Alcotest.check_raises "no cpus"
    (Invalid_argument "Machine.create: num_cpus < 1") (fun () ->
      ignore
        (Machine.create sim ~cost:(Cost_model.Arm Cost_model.arm_default)
           ~num_cpus:0));
  let m = arm_machine () in
  Alcotest.(check int) "num cpus" 8 (Machine.num_cpus m);
  Alcotest.check_raises "pcpu out of range"
    (Invalid_argument "Machine.pcpu: index 8 out of range") (fun () ->
      ignore (Machine.pcpu m 8));
  Alcotest.(check int) "pcpu id" 3 (Machine.pcpu_id (Machine.pcpu m 3))

let test_machine_elapsed_us () =
  let m = arm_machine () in
  Alcotest.(check (float 1e-9)) "2400 cycles = 1us at 2.4GHz" 1.0
    (Machine.elapsed_us m (Cycles.of_int 2400))

(* --- Arm_ops -------------------------------------------------------- *)

let spent m label = Counter.get (Machine.counters m) label

let test_arm_ops_costs () =
  let m = arm_machine () in
  let ops = Arm_ops.create m in
  in_process m (fun () ->
      Arm_ops.trap_to_el2 ops;
      Arm_ops.eret ops;
      Arm_ops.virq_complete ops);
  Alcotest.(check int) "trap" 76 (spent m "arm.trap_to_el2");
  Alcotest.(check int) "eret" 64 (spent m "arm.eret");
  Alcotest.(check int) "virq completion is the paper's 71" 71
    (spent m "arm.virq_complete")

let test_arm_ops_save_restore () =
  let m = arm_machine () in
  let ops = Arm_ops.create m in
  in_process m (fun () ->
      Arm_ops.save_classes ops Armvirt_arch.Reg_class.full_world_switch;
      Arm_ops.restore_classes ops Armvirt_arch.Reg_class.full_world_switch);
  Alcotest.(check int) "total = Table III sums" (4202 + 1506)
    (spent m "cycles");
  Alcotest.(check int) "vgic save attributed" 3250
    (spent m "arm.save.VGIC Regs")

let test_arm_ops_vhe_elides_toggles () =
  let m = arm_machine ~vhe:true () in
  let ops = Arm_ops.create m in
  Alcotest.(check bool) "vhe on" true (Arm_ops.vhe_enabled ops);
  in_process m (fun () ->
      Arm_ops.stage2_disable ops;
      Arm_ops.stage2_enable ops);
  Alcotest.(check int) "toggles are free under VHE" 0 (spent m "cycles")

let test_arm_ops_rejects_x86_machine () =
  let m = x86_machine () in
  Alcotest.check_raises "arch mismatch"
    (Invalid_argument "Arm_ops.create: machine has an x86 cost model")
    (fun () -> ignore (Arm_ops.create m))

let test_arm_ops_copy_and_tlb () =
  let m = arm_machine () in
  let ops = Arm_ops.create m in
  in_process m (fun () ->
      Arm_ops.copy_bytes ops 4096;
      Arm_ops.tlb_invalidate_broadcast ops;
      Arm_ops.page_map ops);
  Alcotest.(check int) "copy 4096 at 0.25/B" 1024 (spent m "arm.copy_bytes");
  Alcotest.(check int) "broadcast TLBI" 600 (spent m "arm.tlb_broadcast");
  Alcotest.(check int) "page map" 420 (spent m "arm.page_map")

(* --- X86_ops -------------------------------------------------------- *)

let test_x86_ops_costs () =
  let m = x86_machine () in
  let ops = X86_ops.create m in
  in_process m (fun () ->
      X86_ops.vmexit ops;
      X86_ops.vmentry ops);
  Alcotest.(check int) "vmexit" 480 (spent m "x86.vmexit");
  Alcotest.(check int) "vmentry" 650 (spent m "x86.vmentry")

let test_x86_eoi_traps_without_vapic () =
  let m = x86_machine () in
  let ops = X86_ops.create m in
  Alcotest.(check bool) "no vapic on the E5-2450" false (X86_ops.vapic_enabled ops);
  in_process m (fun () -> X86_ops.eoi ops);
  (* EOI = vmexit + emulation + vmentry: the Table II ~1.5k cycles. *)
  Alcotest.(check int) "EOI pays a full exit" (480 + 426 + 650) (spent m "cycles")

let test_x86_eoi_with_vapic () =
  let sim = Sim.create () in
  let hw = { Cost_model.x86_default with Cost_model.vapic = true } in
  let m = Machine.create sim ~cost:(Cost_model.X86 hw) ~num_cpus:8 in
  let ops = X86_ops.create m in
  in_process m (fun () -> X86_ops.eoi ops);
  Alcotest.(check int) "vAPIC completes like ARM" 71 (spent m "cycles")

let test_x86_tlb_shootdown_scales () =
  let m = x86_machine () in
  let ops = X86_ops.create m in
  in_process m (fun () -> X86_ops.tlb_shootdown ops ~cpus:8);
  Alcotest.(check int) "base + 8 IPIs" (1000 + (8 * 1200))
    (spent m "x86.tlb_shootdown")

let test_x86_ops_rejects_arm_machine () =
  let m = arm_machine () in
  Alcotest.check_raises "arch mismatch"
    (Invalid_argument "X86_ops.create: machine has an ARM cost model")
    (fun () -> ignore (X86_ops.create m))

let prop_save_restore_additive =
  QCheck.Test.make ~name:"save cost of a class list is the sum of classes"
    (QCheck.make
       (QCheck.Gen.shuffle_l Reg_class.all))
    (fun classes ->
      let hw = Cost_model.arm_default in
      Cost_model.arm_save hw classes
      = List.fold_left
          (fun acc c -> acc + (hw.Cost_model.reg c).Cost_model.save)
          0 classes)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "arch"
    [
      ( "reg_class",
        [ Alcotest.test_case "class sets" `Quick test_reg_class_sets ] );
      ( "exception_level",
        [ Alcotest.test_case "privilege" `Quick test_exception_levels ] );
      ( "cost_model",
        [
          Alcotest.test_case "Table III values" `Quick test_table_iii_values;
          Alcotest.test_case "full switch sums" `Quick test_full_switch_sums;
          Alcotest.test_case "VGIC asymmetry" `Quick test_vgic_asymmetry;
          Alcotest.test_case "copy cost" `Quick test_copy_cost;
          Alcotest.test_case "platform frequencies" `Quick
            test_platform_frequencies;
        ]
        @ qcheck [ prop_save_restore_additive ] );
      ( "machine",
        [
          Alcotest.test_case "spend accounts" `Quick test_machine_spend_accounts;
          Alcotest.test_case "validation" `Quick test_machine_validation;
          Alcotest.test_case "elapsed us" `Quick test_machine_elapsed_us;
        ]
        @ qcheck [ prop_spend_conserves_cycles ] );
      ( "arm_ops",
        [
          Alcotest.test_case "primitive costs" `Quick test_arm_ops_costs;
          Alcotest.test_case "save/restore accounting" `Quick
            test_arm_ops_save_restore;
          Alcotest.test_case "VHE elides toggles" `Quick
            test_arm_ops_vhe_elides_toggles;
          Alcotest.test_case "rejects x86 machine" `Quick
            test_arm_ops_rejects_x86_machine;
          Alcotest.test_case "copy and TLB" `Quick test_arm_ops_copy_and_tlb;
        ] );
      ( "x86_ops",
        [
          Alcotest.test_case "vmexit/vmentry costs" `Quick test_x86_ops_costs;
          Alcotest.test_case "EOI traps without vAPIC" `Quick
            test_x86_eoi_traps_without_vapic;
          Alcotest.test_case "EOI with vAPIC" `Quick test_x86_eoi_with_vapic;
          Alcotest.test_case "TLB shootdown scales with CPUs" `Quick
            test_x86_tlb_shootdown_scales;
          Alcotest.test_case "rejects ARM machine" `Quick
            test_x86_ops_rejects_arm_machine;
        ] );
    ]
