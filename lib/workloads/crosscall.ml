module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Cost_model = Armvirt_arch.Cost_model
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Io_profile = Armvirt_hypervisor.Io_profile

type result = {
  config : string;
  targets : int;
  latency_cycles : int;
  sender_cpu_cycles : int;
  arm_tlbi_alternative : int option;
}

(* Guest-side cost of one flush request handler on a target VCPU. *)
let target_handler = 450

let run ?(targets = 3) (hyp : Hypervisor.t) =
  if targets < 1 || targets > 3 then
    invalid_arg "Crosscall.run: targets must be 1-3";
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  let p = hyp.Hypervisor.io_profile in
  let native = p = Io_profile.native in
  (* Per-leg costs: native IPIs are cheap hardware; virtual IPIs carry
     the hypervisor's emulate/inject round trip. The sender burns its
     half per target; each target burns its half concurrently. *)
  let sender_leg, target_leg =
    if native then (700, 800 + target_handler)
    else
      ( 700 + (p.Io_profile.vipi_guest_cpu / 2),
        800 + (p.Io_profile.vipi_guest_cpu / 2) + target_handler )
  in
  let send_leg = Machine.op machine Irq "crosscall.send_leg" in
  let latency = ref 0 in
  let sender_cpu = ref 0 in
  Sim.spawn sim ~name:"crosscall-sender" (fun () ->
      let t0 = Sim.current_time () in
      (* Initiate each leg serially (ICR/SGI writes serialize on the
         sender)... *)
      for _ = 1 to targets do
        Machine.spend send_leg sender_leg
      done;
      let sent = Sim.current_time () in
      sender_cpu := Cycles.to_int (Cycles.sub sent t0);
      (* ...then the targets run concurrently: completion is one
         target-leg after the last send. *)
      let done_at = Cycles.add sent (Cycles.of_int target_leg) in
      Sim.delay (Cycles.sub done_at sent);
      latency := Cycles.to_int (Cycles.sub done_at t0));
  Sim.run sim;
  let arm_tlbi_alternative =
    match Machine.cost machine with
    | Cost_model.Arm hw -> Some hw.Cost_model.tlb_broadcast_invalidate
    | Cost_model.X86 _ -> None
  in
  {
    config = hyp.Hypervisor.name;
    targets;
    latency_cycles = !latency;
    sender_cpu_cycles = !sender_cpu;
    arm_tlbi_alternative;
  }
