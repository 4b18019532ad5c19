module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Transitions = Armvirt_arch.Transitions
module Marker = Armvirt_obs.Marker

type marks = {
  hypercall : Machine.marker;
  ict : Machine.marker;
  virq_completion : Machine.marker;
  vm_switch : Machine.marker;
  vipi : Machine.marker;
  io_out : Machine.marker;
  io_in : Machine.marker;
  transitions : Transitions.t;
}

let marks machine ~hyp : marks =
  {
    hypercall = Machine.marker machine (Marker.op ~hyp Trap "hypercall");
    ict = Machine.marker machine (Marker.op ~hyp Other "ict");
    virq_completion =
      Machine.marker machine (Marker.op ~hyp Irq "virq_completion");
    vm_switch = Machine.marker machine (Marker.op ~hyp Other "vm_switch");
    vipi = Machine.marker machine (Marker.op ~hyp Irq "vipi");
    io_out = Machine.marker machine (Marker.op ~hyp Other "io_out");
    io_in = Machine.marker machine (Marker.op ~hyp Other "io_in");
    transitions = Transitions.create machine ~hyp;
  }

type kind = Native | Type1 | Type2
type arch = Arm | X86

type t = {
  name : string;
  kind : kind;
  arch : arch;
  machine : Machine.t;
  barrier_cost : Cycles.t;
  hypercall : unit -> unit;
  interrupt_controller_trap : unit -> unit;
  virtual_irq_completion : unit -> unit;
  vm_switch : unit -> unit;
  virtual_ipi : unit -> Cycles.t;
  io_latency_out : unit -> Cycles.t;
  io_latency_in : unit -> Cycles.t;
  io_profile : Io_profile.t;
  migrate : Migrate_profile.t;
  guest : Armvirt_guest.Kernel_costs.t;
  transitions : Transitions.t;
  hypercall_exit_entry : int;
}

let request_service_cycles t =
  let p = t.io_profile in
  Armvirt_guest.Kernel_costs.rr_server_cycles t.guest
  + p.Io_profile.irq_delivery_guest_cpu + p.Io_profile.virq_completion
  + p.Io_profile.guest_rx_per_packet + p.Io_profile.guest_tx_per_packet
  + p.Io_profile.kick_guest_cpu

let request_fixed_latency t =
  let p = t.io_profile in
  p.Io_profile.phys_rx_extra_latency + p.Io_profile.irq_delivery_latency
  + p.Io_profile.notify_latency

let remote_completion machine ~name ~wire path =
  let finished = Sim.Signal.create (Machine.sim machine) in
  Sim.spawn_here ~name (fun () ->
      Sim.delay wire;
      path ();
      Sim.Signal.notify finished);
  Sim.Signal.wait finished
