module Cycles = Armvirt_engine.Cycles

type t = { machine : Machine.t; hw : Cost_model.arm }

let create machine =
  match Machine.cost machine with
  | Cost_model.Arm hw -> { machine; hw }
  | Cost_model.X86 _ ->
      invalid_arg "Arm_ops.create: machine has an x86 cost model"

let machine t = t.machine
let hw t = t.hw
let vhe_enabled t = t.hw.Cost_model.vhe

let spend t label cycles = Machine.spend t.machine label cycles

let hvc_issue t = spend t "arm.hvc_issue" t.hw.Cost_model.hvc_issue
let trap_to_el2 t = spend t "arm.trap_to_el2" t.hw.Cost_model.trap_to_el2
let eret t = spend t "arm.eret" t.hw.Cost_model.eret

(* Literal per-class labels, so a split-mode world switch (all seven
   classes each way) builds no strings. *)
let save_label = function
  | Reg_class.Gp -> "arm.save.GP Regs"
  | Fp -> "arm.save.FP Regs"
  | El1_sys -> "arm.save.EL1 System Regs"
  | Vgic -> "arm.save.VGIC Regs"
  | Timer -> "arm.save.Timer Regs"
  | El2_config -> "arm.save.EL2 Config Regs"
  | El2_virtual_memory -> "arm.save.EL2 Virtual Memory Regs"

let restore_label = function
  | Reg_class.Gp -> "arm.restore.GP Regs"
  | Fp -> "arm.restore.FP Regs"
  | El1_sys -> "arm.restore.EL1 System Regs"
  | Vgic -> "arm.restore.VGIC Regs"
  | Timer -> "arm.restore.Timer Regs"
  | El2_config -> "arm.restore.EL2 Config Regs"
  | El2_virtual_memory -> "arm.restore.EL2 Virtual Memory Regs"

let save_classes t classes =
  List.iter
    (fun cls ->
      spend t (save_label cls) (t.hw.Cost_model.reg cls).Cost_model.save)
    classes

let restore_classes t classes =
  List.iter
    (fun cls ->
      spend t (restore_label cls) (t.hw.Cost_model.reg cls).Cost_model.restore)
    classes

let stage2_disable t =
  if not t.hw.Cost_model.vhe then
    spend t "arm.stage2_toggle" t.hw.Cost_model.stage2_toggle

let stage2_enable t =
  if not t.hw.Cost_model.vhe then
    spend t "arm.stage2_toggle" t.hw.Cost_model.stage2_toggle

let mmio_decode t = spend t "arm.mmio_decode" t.hw.Cost_model.mmio_decode
let vgic_slot_scan t = spend t "arm.vgic_slot_scan" t.hw.Cost_model.vgic_slot_scan
let vgic_lr_write t = spend t "arm.vgic_lr_write" t.hw.Cost_model.vgic_lr_write
let virq_complete t = spend t "arm.virq_complete" t.hw.Cost_model.virq_complete

let virq_guest_dispatch t =
  spend t "arm.virq_guest_dispatch" t.hw.Cost_model.virq_guest_dispatch

let ipi_wire_latency t = Cycles.of_int t.hw.Cost_model.phys_ipi_wire

let tlb_invalidate_broadcast t =
  spend t "arm.tlb_broadcast" t.hw.Cost_model.tlb_broadcast_invalidate

let tlb_invalidate_local t =
  spend t "arm.tlb_local" t.hw.Cost_model.tlb_local_invalidate

let page_map t = spend t "arm.page_map" t.hw.Cost_model.page_map_cost

let copy_bytes t n =
  spend t "arm.copy_bytes"
    (Cost_model.copy_cost ~per_byte:t.hw.Cost_model.per_byte_copy ~bytes:n)

let barrier_cost t = Cycles.of_int t.hw.Cost_model.timestamp_barrier
