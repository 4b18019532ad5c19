module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module X86_ops = Armvirt_arch.X86_ops
module Cost_model = Armvirt_arch.Cost_model
module Event_channel = Armvirt_io.Event_channel
module Vmx_state = Armvirt_arch.Vmx_state
module Kernel_costs = Armvirt_guest.Kernel_costs
module Esr = Armvirt_arch.Esr
module Transitions = Armvirt_arch.Transitions

type tuning = {
  dispatch : int;
  apic_mmio_emulate : int;
  icr_emulate : int;
  irq_inject : int;
  eoi_emul : int;
  sched_switch : int;
  pv_switch : int;
  evtchn_send : int;
  dom0_upcall : int;
  dom0_signal_path : int;
  grant_copy_fixed : int;
  netback_per_packet : int;
}

let default_tuning =
  {
    dispatch = 78;
    apic_mmio_emulate = 604;
    icr_emulate = 1700;
    irq_inject = 1742;
    eoi_emul = 334;
    sched_switch = 9404;
    pv_switch = 8200;
    evtchn_send = 200;
    dom0_upcall = 1972;
    dom0_signal_path = 2246;
    grant_copy_fixed = 4300;
    netback_per_packet = 3100;
  }

(* The model's priced steps, interned at [create]. *)
type steps = {
  dispatch : Machine.op;
  apic_emulate : Machine.op;
  eoi_vapic : Machine.op;
  eoi_emul : Machine.op;
  sched_switch : Machine.op;
  icr_emulate : Machine.op;
  irq_inject : Machine.op;
  evtchn_send : Machine.op;
  pv_switch : Machine.op;
  dom0_upcall : Machine.op;
  dom0_signal_path : Machine.op;
}

type t = {
  ops : X86_ops.t;
  tun : tuning;
  machine : Machine.t;
  step : steps;
  mark : Hypervisor.marks;
  channels : Event_channel.t;
  io_port : Event_channel.port;
  irq_port : Event_channel.port;
  guest : Kernel_costs.t;
  world : Vmx_state.t array;  (* one VMX world per PCPU *)
}

let create ?(tuning = default_tuning) machine =
  if Machine.num_cpus machine < 8 then
    invalid_arg "Xen_x86.create: needs >= 8 PCPUs (paper testbed)";
  let ops = X86_ops.create machine in
  let channels = Event_channel.create () in
  let io_port = Event_channel.alloc channels ~from_dom:1 ~to_dom:0 in
  let irq_port = Event_channel.alloc channels ~from_dom:0 ~to_dom:1 in
  let op = Machine.op machine in
  {
    ops;
    tun = tuning;
    machine;
    step =
      {
        dispatch = op Trap "xen_x86.dispatch";
        apic_emulate = op Trap "xen_x86.apic_emulate";
        eoi_vapic = op ~lane:Guest Irq "xen_x86.eoi_vapic";
        eoi_emul = op Trap "xen_x86.eoi_emul";
        sched_switch = op Sched "xen_x86.sched_switch";
        icr_emulate = op Trap "xen_x86.icr_emulate";
        irq_inject = op Irq "xen_x86.irq_inject";
        evtchn_send = op Irq "xen_x86.evtchn_send";
        pv_switch = op Other "xen_x86.pv_switch";
        dom0_upcall = op Vmexit "xen_x86.dom0_upcall";
        dom0_signal_path = op Io "xen_x86.dom0_signal_path";
      };
    mark = Hypervisor.marks machine ~hyp:"xen_x86";
    channels;
    io_port;
    irq_port;
    guest = Kernel_costs.defaults;
    world = Array.init (Machine.num_cpus machine) (fun _ -> Vmx_state.create ());
  }

let machine t = t.machine
let world t ~pcpu = t.world.(pcpu)

(* DomU (HVM) VCPU0 on PCPU 4; Dom0 is paravirtualized and lives in
   root mode on PCPUs 0-3 — it never enters non-root operation. *)
let domu_pcpu = 4

let given_vm_running ?(pcpu = domu_pcpu) ?(domid = 1) t =
  Vmx_state.establish t.world.(pcpu) ~mode:Vmx_state.Non_root
    ~vmcs:(Some domid)

let given_domu_blocked ?(pcpu = domu_pcpu) t =
  (* DomU blocked for I/O: Xen's root-mode idle context holds the PCPU
     and the VMCS has been cleared. *)
  Vmx_state.establish t.world.(pcpu) ~mode:Vmx_state.Root ~vmcs:None

(* Only HVM DomU transitions are marked: PV Dom0 never leaves root
   mode, so its traps are plain spends, matching real kvm_stat scope. *)
let exit_vm ?(pcpu = domu_pcpu) ?(reason = Esr.Hvc64) t =
  Machine.count
    (Transitions.exit t.mark.transitions (Esr.marker_reason reason) ~pcpu);
  Vmx_state.vmexit t.world.(pcpu);
  X86_ops.vmexit t.ops

let resume_vm ?(pcpu = domu_pcpu) t =
  X86_ops.vmentry t.ops;
  Vmx_state.vmentry t.world.(pcpu);
  Machine.count (Transitions.entry t.mark.transitions ~pcpu)

let hypercall t =
  Machine.count t.mark.hypercall;
  given_vm_running t;
  X86_ops.vmcall_issue t.ops;
  exit_vm t;
  Machine.spend t.step.dispatch t.tun.dispatch;
  resume_vm t

let interrupt_controller_trap t =
  Machine.count t.mark.ict;
  given_vm_running t;
  exit_vm ~reason:Esr.Data_abort_lower t (* APIC MMIO write *);
  Machine.spend t.step.apic_emulate t.tun.apic_mmio_emulate;
  resume_vm t

let virtual_irq_completion t =
  Machine.count t.mark.virq_completion;
  given_vm_running t;
  if X86_ops.vapic_enabled t.ops then
    (* Hardware completion, like ARM's virtual CPU interface. *)
    Machine.spend t.step.eoi_vapic 71
  else begin
    exit_vm ~reason:Esr.Data_abort_lower t (* EOI register write *);
    Machine.spend t.step.eoi_emul t.tun.eoi_emul;
    resume_vm t
  end

let vm_switch t =
  Machine.count t.mark.vm_switch;
  given_vm_running t;
  let w = t.world.(domu_pcpu) in
  exit_vm ~reason:Esr.Irq t (* the scheduler tick preempts *);
  Machine.spend t.step.sched_switch t.tun.sched_switch;
  Vmx_state.vmclear w;
  Vmx_state.vmptrld w ~domid:2;
  resume_vm t

let virtual_ipi t =
  Machine.count t.mark.vipi;
  given_vm_running t;
  given_vm_running ~pcpu:5 t;
  let start = Sim.current_time () in
  exit_vm ~reason:Esr.Data_abort_lower t (* APIC ICR write *);
  Machine.spend t.step.icr_emulate t.tun.icr_emulate;
  let receiver () =
    exit_vm ~pcpu:5 ~reason:Esr.Irq t;
    Machine.spend t.step.irq_inject t.tun.irq_inject;
    resume_vm ~pcpu:5 t;
    X86_ops.virq_guest_dispatch t.ops
  in
  Hypervisor.remote_completion t.machine ~name:"xen-x86-vipi"
    ~wire:(X86_ops.ipi_wire_latency t.ops)
    receiver;
  let latency = Cycles.sub (Sim.current_time ()) start in
  resume_vm t;
  latency

(* DomU (HVM) kick: vmexit to Xen, event channel to PV Dom0 on another
   PCPU, where the idle context is swapped for Dom0's root-mode PV
   context — no VMCS reload, but a full scheduler pass. *)
let io_latency_out t =
  Machine.count t.mark.io_out;
  given_vm_running t;
  let start = Sim.current_time () in
  exit_vm ~reason:Esr.Hvc64 t (* evtchn_send hypercall *);
  Machine.spend t.step.evtchn_send t.tun.evtchn_send;
  Event_channel.send t.channels t.io_port;
  let dom0_side () =
    Machine.spend t.step.pv_switch t.tun.pv_switch;
    ignore (Event_channel.consume t.channels t.io_port);
    Machine.spend t.step.dom0_upcall t.tun.dom0_upcall
  in
  Hypervisor.remote_completion t.machine ~name:"xen-x86-io-out"
    ~wire:(X86_ops.ipi_wire_latency t.ops)
    dom0_side;
  let latency = Cycles.sub (Sim.current_time ()) start in
  resume_vm t;
  latency

(* Dom0 (PV) signals DomU: the hypercall from Dom0 is a cheap PV trap,
   then Xen switches the idle context for the HVM DomU (VMCS load) and
   injects the virtual interrupt. *)
let io_latency_in t =
  Machine.count t.mark.io_in;
  (* DomU blocked earlier; Xen's root-mode idle context holds its PCPU. *)
  given_domu_blocked t;
  let start = Sim.current_time () in
  Machine.spend t.step.dom0_signal_path t.tun.dom0_signal_path;
  Machine.spend t.step.evtchn_send t.tun.evtchn_send;
  Event_channel.send t.channels t.irq_port;
  let domu_side () =
    Machine.spend t.step.sched_switch (t.tun.sched_switch / 2);
    Machine.spend t.step.irq_inject t.tun.irq_inject;
    ignore (Event_channel.consume t.channels t.irq_port);
    Vmx_state.vmptrld t.world.(domu_pcpu) ~domid:1;
    resume_vm t;
    X86_ops.virq_guest_dispatch t.ops
  in
  Hypervisor.remote_completion t.machine ~name:"xen-x86-io-in"
    ~wire:(X86_ops.ipi_wire_latency t.ops)
    domu_side;
  Cycles.sub (Sim.current_time ()) start

let zero_copy_break_even_bytes t ~cpus =
  let hw = X86_ops.hw t.ops in
  let shootdown =
    hw.Cost_model.tlb_shootdown_base
    + (cpus * hw.Cost_model.tlb_shootdown_per_cpu)
  in
  let map_path = (2 * hw.Cost_model.page_map_cost) + shootdown in
  (* Copying wins while grant_copy_fixed + bytes * per_byte < map_path. *)
  int_of_float
    (Float.max 0.0
       (float_of_int (map_path - t.tun.grant_copy_fixed)
       /. hw.Cost_model.per_byte_copy))

(* Every exit and re-entry pays the VMCS transition pair; the profiles
   and the hypercall's exit->entry distance are built from it. *)
let path_costs t =
  let hw = X86_ops.hw t.ops in
  (hw, hw.Cost_model.vmexit + hw.Cost_model.vmentry)

(* The hypercall between its exit and entry markers: the transition
   pair around the dispatch. *)
let hypercall_exit_entry t =
  let _, exit_entry = path_costs t in
  exit_entry + t.tun.dispatch

let io_profile t =
  let hw, exit_entry = path_costs t in
  let wire = hw.Cost_model.phys_ipi_wire in
  {
    Io_profile.notify_latency =
      hw.Cost_model.vmexit + t.tun.evtchn_send + wire + t.tun.pv_switch
      + t.tun.dom0_upcall;
    kick_guest_cpu = exit_entry + t.tun.evtchn_send;
    irq_delivery_latency =
      t.tun.dom0_signal_path + t.tun.evtchn_send + wire
      + (t.tun.sched_switch / 2) + t.tun.irq_inject + hw.Cost_model.vmentry;
    irq_delivery_guest_cpu =
      exit_entry + t.tun.irq_inject + hw.Cost_model.virq_guest_dispatch;
    virq_completion =
      (if hw.Cost_model.vapic then 71 else exit_entry + t.tun.eoi_emul);
    vipi_guest_cpu =
      exit_entry + t.tun.icr_emulate + exit_entry + t.tun.irq_inject
      + hw.Cost_model.virq_guest_dispatch;
    backend_cpu_per_packet = t.tun.netback_per_packet;
    rx_copy_per_byte = hw.Cost_model.per_byte_copy;
    tx_copy_per_byte = hw.Cost_model.per_byte_copy;
    rx_grant_per_packet = t.tun.grant_copy_fixed;
    tx_grant_per_packet = t.tun.grant_copy_fixed;
    guest_rx_per_packet = 2600;
    guest_tx_per_packet = 2400;
    irq_rate_factor = 1.6;
    phys_rx_extra_latency = t.tun.pv_switch;
    zero_copy = false;
  }

(* Xen x86 migration: log-dirty faults pay the same VMCS transition pair
   as KVM x86 (fixed-function hardware), but pages reach the toolstack
   through grant copies and every batch engages Dom0 through an event
   channel + PV context switch — the heaviest transport of the four. *)
let migrate_profile t =
  let hw, exit_entry = path_costs t in
  {
    Migrate_profile.transport = "grant";
    wp_fault_guest_cpu =
      exit_entry + hw.Cost_model.stage2_wp_fault + hw.Cost_model.page_map_cost;
    harvest_per_page = hw.Cost_model.page_map_cost;
    page_copy_per_byte = hw.Cost_model.per_byte_copy;
    page_send_per_page = t.tun.grant_copy_fixed;
    batch_kick = t.tun.evtchn_send + t.tun.pv_switch;
    pause_vcpu = hw.Cost_model.vmexit + (t.tun.sched_switch / 2);
    resume_vcpu = (t.tun.sched_switch / 2) + hw.Cost_model.vmentry;
    state_transfer = t.tun.sched_switch + exit_entry;
  }

let to_hypervisor t =
  {
    Hypervisor.name = "Xen x86";
    kind = Hypervisor.Type1;
    arch = Hypervisor.X86;
    machine = t.machine;
    barrier_cost = X86_ops.barrier_cost t.ops;
    hypercall = (fun () -> hypercall t);
    interrupt_controller_trap = (fun () -> interrupt_controller_trap t);
    virtual_irq_completion = (fun () -> virtual_irq_completion t);
    vm_switch = (fun () -> vm_switch t);
    virtual_ipi = (fun () -> virtual_ipi t);
    io_latency_out = (fun () -> io_latency_out t);
    io_latency_in = (fun () -> io_latency_in t);
    io_profile = io_profile t;
    migrate = migrate_profile t;
    guest = t.guest;
    transitions = t.mark.transitions;
    hypercall_exit_entry = hypercall_exit_entry t;
  }
