module Cycles = Armvirt_engine.Cycles

type t = {
  hw : Cost_model.x86;
  vmcall_issue : Machine.op;
  vmexit : Machine.op;
  vmentry : Machine.op;
  eoi_vapic : Machine.op;
  eoi_emul : Machine.op;
  virq_guest_dispatch : Machine.op;
}

let create machine =
  match Machine.cost machine with
  | Cost_model.Arm _ ->
      invalid_arg "X86_ops.create: machine has an ARM cost model"
  | Cost_model.X86 hw ->
      let op = Machine.op machine in
      {
        hw;
        vmcall_issue = op Trap "x86.vmcall_issue";
        vmexit = op Vmexit "x86.vmexit";
        vmentry = op Vmexit "x86.vmentry";
        eoi_vapic = op ~lane:Guest Irq "x86.eoi_vapic";
        eoi_emul = op Trap "x86.eoi_emul";
        virq_guest_dispatch = op ~lane:Guest Trap "x86.virq_guest_dispatch";
      }

let hw t = t.hw
let vapic_enabled t = t.hw.Cost_model.vapic

let vmcall_issue t = Machine.spend t.vmcall_issue t.hw.Cost_model.vmcall_issue
let vmexit t = Machine.spend t.vmexit t.hw.Cost_model.vmexit
let vmentry t = Machine.spend t.vmentry t.hw.Cost_model.vmentry
let eoi_emul t = Machine.spend t.eoi_emul t.hw.Cost_model.eoi_emul

let eoi t =
  if t.hw.Cost_model.vapic then Machine.spend t.eoi_vapic 71
  else begin
    vmexit t;
    eoi_emul t;
    vmentry t
  end

let virq_guest_dispatch t =
  Machine.spend t.virq_guest_dispatch t.hw.Cost_model.virq_guest_dispatch

let ipi_wire_latency t = Cycles.of_int t.hw.Cost_model.phys_ipi_wire

let barrier_cost t = Cycles.of_int t.hw.Cost_model.timestamp_barrier
