type reg_costs = { save : int; restore : int }

type arm = {
  freq_ghz : float;
  trap_to_el2 : int;
  eret : int;
  hvc_issue : int;
  stage2_toggle : int;
  reg : Reg_class.t -> reg_costs;
  vgic_slot_scan : int;
  vgic_lr_write : int;
  virq_complete : int;
  virq_guest_dispatch : int;
  phys_ipi_wire : int;
  mmio_decode : int;
  timestamp_barrier : int;
  tlb_broadcast_invalidate : int;
  tlb_local_invalidate : int;
  per_byte_copy : float;
  page_map_cost : int;
  stage2_wp_fault : int;
  vhe : bool;
}

type x86 = {
  freq_ghz : float;
  vmexit : int;
  vmentry : int;
  vmcall_issue : int;
  vapic : bool;
  eoi_emul : int;
  virq_guest_dispatch : int;
  phys_ipi_wire : int;
  timestamp_barrier : int;
  tlb_shootdown_base : int;
  tlb_shootdown_per_cpu : int;
  per_byte_copy : float;
  page_map_cost : int;
  stage2_wp_fault : int;
}

type t = Arm of arm | X86 of x86

(* Table III of the paper, verbatim. *)
let table_iii : Reg_class.t -> reg_costs = function
  | Reg_class.Gp -> { save = 152; restore = 184 }
  | Reg_class.Fp -> { save = 282; restore = 310 }
  | Reg_class.El1_sys -> { save = 230; restore = 511 }
  | Reg_class.Vgic -> { save = 3250; restore = 181 }
  | Reg_class.Timer -> { save = 104; restore = 106 }
  | Reg_class.El2_config -> { save = 92; restore = 107 }
  | Reg_class.El2_virtual_memory -> { save = 92; restore = 107 }

let arm_default =
  {
    freq_ghz = 2.4;
    trap_to_el2 = 76;
    eret = 64;
    hvc_issue = 16;
    stage2_toggle = 50;
    reg = table_iii;
    vgic_slot_scan = 760;
    vgic_lr_write = 181;
    virq_complete = 71;
    virq_guest_dispatch = 96;
    phys_ipi_wire = 420;
    mmio_decode = 70;
    timestamp_barrier = 24;
    tlb_broadcast_invalidate = 600;
    tlb_local_invalidate = 150;
    per_byte_copy = 0.25;
    page_map_cost = 420;
    stage2_wp_fault = 780;
    vhe = false;
  }

(* Copy-with-override paths: every what-if machine is a functional
   update of a base model, never a mutation — sampled design points and
   ablations can coexist in one process. *)
let with_vhe vhe arm = { arm with vhe }
let with_stage2_wp_fault stage2_wp_fault (arm : arm) =
  { arm with stage2_wp_fault }

let with_reg_cost cls ~save ~restore arm =
  let prev = arm.reg in
  { arm with reg = (fun c -> if c = cls then { save; restore } else prev c) }

let arm_vhe = with_vhe true arm_default

(* GICv3 moves the CPU-interface state behind system registers
   (ICH_*_EL2 / ICC_*_EL1), so reading it back on exit is ordinary
   register traffic instead of slow interconnect MMIO — the single
   biggest line of Table III nearly vanishes. *)
let arm_gicv3 =
  {
    (with_reg_cost Reg_class.Vgic ~save:248 ~restore:181 arm_default) with
    vgic_slot_scan = 96;
    vgic_lr_write = 58;
  }

let arm_gicv3_vhe = with_vhe true arm_gicv3

let x86_default =
  {
    freq_ghz = 2.1;
    vmexit = 480;
    vmentry = 650;
    vmcall_issue = 20;
    vapic = false;
    eoi_emul = 426;
    virq_guest_dispatch = 110;
    phys_ipi_wire = 400;
    timestamp_barrier = 30;
    tlb_shootdown_base = 1000;
    tlb_shootdown_per_cpu = 1200;
    per_byte_copy = 0.25;
    page_map_cost = 380;
    stage2_wp_fault = 640;
  }

let freq_ghz = function Arm a -> a.freq_ghz | X86 x -> x.freq_ghz

let arm_save arm classes =
  List.fold_left (fun acc cls -> acc + (arm.reg cls).save) 0 classes

let arm_restore arm classes =
  List.fold_left (fun acc cls -> acc + (arm.reg cls).restore) 0 classes

let arm_full_save arm = arm_save arm Reg_class.full_world_switch
let arm_full_restore arm = arm_restore arm Reg_class.full_world_switch

let copy_cost ~per_byte ~bytes =
  if bytes < 0 then invalid_arg "Cost_model.copy_cost: negative size";
  if bytes = 0 then 0
  else Stdlib.max 1 (int_of_float (Float.round (per_byte *. float_of_int bytes)))
