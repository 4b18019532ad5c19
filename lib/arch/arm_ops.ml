module Cycles = Armvirt_engine.Cycles

type t = {
  hw : Cost_model.arm;
  hvc_issue : Machine.op;
  trap_to_el2 : Machine.op;
  eret : Machine.op;
  save : Machine.op array; (* by Reg_class.index *)
  restore : Machine.op array;
  stage2_toggle : Machine.op;
  mmio_decode : Machine.op;
  vgic_slot_scan : Machine.op;
  vgic_lr_write : Machine.op;
  virq_complete : Machine.op;
  virq_guest_dispatch : Machine.op;
  page_map : Machine.op;
  copy_bytes : Machine.op;
}

let save_label cls = "arm.save." ^ Reg_class.to_string cls
let restore_label cls = "arm.restore." ^ Reg_class.to_string cls

let create machine =
  match Machine.cost machine with
  | Cost_model.X86 _ ->
      invalid_arg "Arm_ops.create: machine has an x86 cost model"
  | Cost_model.Arm hw ->
      let op = Machine.op machine in
      (* Only the VGIC and timer classes are interrupt state. *)
      let per_class label =
        Array.of_list
          (List.map
             (fun cls ->
               op
                 (match cls with Reg_class.Vgic | Timer -> Irq | _ -> Other)
                 (label cls))
             Reg_class.all)
      in
      {
        hw;
        hvc_issue = op Trap "arm.hvc_issue";
        trap_to_el2 = op Trap "arm.trap_to_el2";
        eret = op Vmexit "arm.eret";
        save = per_class save_label;
        restore = per_class restore_label;
        stage2_toggle = op Stage2 "arm.stage2_toggle";
        mmio_decode = op Trap "arm.mmio_decode";
        vgic_slot_scan = op Irq "arm.vgic_slot_scan";
        vgic_lr_write = op Irq "arm.vgic_lr_write";
        virq_complete = op ~lane:Guest Irq "arm.virq_complete";
        virq_guest_dispatch = op ~lane:Guest Trap "arm.virq_guest_dispatch";
        page_map = op Stage2 "arm.page_map";
        copy_bytes = op Io "arm.copy_bytes";
      }

let hw t = t.hw
let vhe_enabled t = t.hw.Cost_model.vhe

let hvc_issue t = Machine.spend t.hvc_issue t.hw.Cost_model.hvc_issue
let trap_to_el2 t = Machine.spend t.trap_to_el2 t.hw.Cost_model.trap_to_el2
let eret t = Machine.spend t.eret t.hw.Cost_model.eret

let rec save_classes t = function
  | [] -> ()
  | cls :: rest ->
      Machine.spend
        t.save.(Reg_class.index cls)
        (t.hw.Cost_model.reg cls).Cost_model.save;
      save_classes t rest

let rec restore_classes t = function
  | [] -> ()
  | cls :: rest ->
      Machine.spend
        t.restore.(Reg_class.index cls)
        (t.hw.Cost_model.reg cls).Cost_model.restore;
      restore_classes t rest

let stage2_disable t =
  if not t.hw.Cost_model.vhe then
    Machine.spend t.stage2_toggle t.hw.Cost_model.stage2_toggle

let stage2_enable t =
  if not t.hw.Cost_model.vhe then
    Machine.spend t.stage2_toggle t.hw.Cost_model.stage2_toggle

let mmio_decode t = Machine.spend t.mmio_decode t.hw.Cost_model.mmio_decode

let vgic_slot_scan t =
  Machine.spend t.vgic_slot_scan t.hw.Cost_model.vgic_slot_scan

let vgic_lr_write t = Machine.spend t.vgic_lr_write t.hw.Cost_model.vgic_lr_write
let virq_complete t = Machine.spend t.virq_complete t.hw.Cost_model.virq_complete

let virq_guest_dispatch t =
  Machine.spend t.virq_guest_dispatch t.hw.Cost_model.virq_guest_dispatch

let ipi_wire_latency t = Cycles.of_int t.hw.Cost_model.phys_ipi_wire

let page_map t = Machine.spend t.page_map t.hw.Cost_model.page_map_cost

let copy_bytes t n =
  Machine.spend t.copy_bytes
    (Cost_model.copy_cost ~per_byte:t.hw.Cost_model.per_byte_copy ~bytes:n)

let barrier_cost t = Cycles.of_int t.hw.Cost_model.timestamp_barrier
