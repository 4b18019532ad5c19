module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Cost_model = Armvirt_arch.Cost_model
module Transitions = Armvirt_arch.Transitions

type t = { machine : Machine.t }

let create machine = { machine }

let to_hypervisor t =
  let barrier =
    match Machine.cost t.machine with
    | Cost_model.Arm hw -> hw.Cost_model.timestamp_barrier
    | Cost_model.X86 hw -> hw.Cost_model.timestamp_barrier
  in
  let arch =
    match Machine.cost t.machine with
    | Cost_model.Arm _ -> Hypervisor.Arm
    | Cost_model.X86 _ -> Hypervisor.X86
  in
  let per_byte_copy =
    match Machine.cost t.machine with
    | Cost_model.Arm hw -> hw.Cost_model.per_byte_copy
    | Cost_model.X86 hw -> hw.Cost_model.per_byte_copy
  in
  let nothing () = () in
  let no_latency () = Cycles.zero in
  {
    Hypervisor.name = "Native";
    kind = Hypervisor.Native;
    arch;
    machine = t.machine;
    barrier_cost = Cycles.of_int barrier;
    hypercall = nothing;
    interrupt_controller_trap = nothing;
    virtual_irq_completion = nothing;
    vm_switch = nothing;
    virtual_ipi = no_latency;
    io_latency_out = no_latency;
    io_latency_in = no_latency;
    io_profile = Io_profile.native;
    (* Bare memcpy lower bound: no faults, no transport, no blackout
       machinery — just moving the bytes. *)
    migrate = { Migrate_profile.none with page_copy_per_byte = per_byte_copy };
    guest = Armvirt_guest.Kernel_costs.defaults;
    transitions = Transitions.create t.machine ~hyp:"native";
    hypercall_exit_entry = 0;
  }
