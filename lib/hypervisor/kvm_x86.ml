module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module X86_ops = Armvirt_arch.X86_ops
module Cost_model = Armvirt_arch.Cost_model
module Apic = Armvirt_gic.Apic
module Vmx_state = Armvirt_arch.Vmx_state
module Kernel_costs = Armvirt_guest.Kernel_costs
module Esr = Armvirt_arch.Esr
module Transitions = Armvirt_arch.Transitions

type tuning = {
  dispatch : int;
  apic_mmio_emulate : int;
  icr_emulate : int;
  irq_inject : int;
  process_switch : int;
  kick_dispatch : int;
  vcpu_resume : int;
  vhost_per_packet : int;
}

let default_tuning =
  {
    dispatch = 150;
    apic_mmio_emulate = 1254;
    icr_emulate = 1500;
    irq_inject = 1610;
    process_switch = 3682;
    kick_dispatch = 80;
    vcpu_resume = 15853;
    vhost_per_packet = 1400;
  }

(* The model's priced steps, interned at [create]. *)
type steps = {
  dispatch : Machine.op;
  apic_emulate : Machine.op;
  process_switch : Machine.op;
  icr_emulate : Machine.op;
  irq_inject : Machine.op;
  kick_dispatch : Machine.op;
  vhost_signal : Machine.op;
  vcpu_resume : Machine.op;
}

type t = {
  ops : X86_ops.t;
  tun : tuning;
  machine : Machine.t;
  step : steps;
  mark : Hypervisor.marks;
  apic : Apic.t;
  guest : Kernel_costs.t;
  world : Vmx_state.t array;  (* one VMX world per PCPU *)
}

let create ?(tuning = default_tuning) machine =
  if Machine.num_cpus machine < 8 then
    invalid_arg "Kvm_x86.create: needs >= 8 PCPUs (paper testbed)";
  let ops = X86_ops.create machine in
  let op = Machine.op machine in
  {
    ops;
    tun = tuning;
    machine;
    step =
      {
        dispatch = op Trap "kvm_x86.dispatch";
        apic_emulate = op Trap "kvm_x86.apic_emulate";
        process_switch = op Vmexit "kvm_x86.process_switch";
        icr_emulate = op Trap "kvm_x86.icr_emulate";
        irq_inject = op Irq "kvm_x86.irq_inject";
        kick_dispatch = op Trap "kvm_x86.kick_dispatch";
        vhost_signal = op Io "kvm_x86.vhost_signal";
        vcpu_resume = op Vmexit "kvm_x86.vcpu_resume";
      };
    mark = Hypervisor.marks machine ~hyp:"kvm_x86";
    apic = Apic.create ();
    guest = Kernel_costs.defaults;
    world = Array.init (Machine.num_cpus machine) (fun _ -> Vmx_state.create ());
  }

let machine t = t.machine
let world t ~pcpu = t.world.(pcpu)

let vcpu0_pcpu = 4

let given_vm_running ?(pcpu = vcpu0_pcpu) ?(domid = 1) t =
  Vmx_state.establish t.world.(pcpu) ~mode:Vmx_state.Non_root
    ~vmcs:(Some domid)

let given_vcpu_blocked ?(pcpu = vcpu0_pcpu) ?(domid = 1) t =
  Vmx_state.establish t.world.(pcpu) ~mode:Vmx_state.Root ~vmcs:(Some domid)

(* VMCALL is the x86 hypercall; the ARM mnemonics double as generic
   exit reasons in the marker labels (mli note in Esr). *)
let exit_vm ?(pcpu = vcpu0_pcpu) ?(reason = Esr.Hvc64) t =
  Machine.count
    (Transitions.exit t.mark.transitions (Esr.marker_reason reason) ~pcpu);
  Vmx_state.vmexit t.world.(pcpu);
  X86_ops.vmexit t.ops

let resume_vm ?(pcpu = vcpu0_pcpu) t =
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
  let hw = X86_ops.hw t.ops in
  if hw.Cost_model.vapic then X86_ops.eoi t.ops
  else begin
    (* Pre-vAPIC hardware: the EOI write traps like any APIC MMIO, so
       it is a marked exit/entry pair (same spends as X86_ops.eoi). *)
    given_vm_running t;
    exit_vm ~reason:Esr.Data_abort_lower t;
    X86_ops.eoi_emul t.ops;
    resume_vm t
  end

let vm_switch t =
  Machine.count t.mark.vm_switch;
  given_vm_running t;
  let w = t.world.(vcpu0_pcpu) in
  exit_vm ~reason:Esr.Irq t (* the scheduler tick preempts *);
  Machine.spend t.step.process_switch t.tun.process_switch;
  (* The other QEMU process vmptrld's its own VMCS. *)
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
  Apic.fire t.apic ~vector:64;
  let receiver () =
    exit_vm ~pcpu:5 ~reason:Esr.Irq t;
    Machine.spend t.step.irq_inject t.tun.irq_inject;
    ignore (Apic.acknowledge t.apic);
    resume_vm ~pcpu:5 t;
    X86_ops.virq_guest_dispatch t.ops
  in
  Hypervisor.remote_completion t.machine ~name:"kvm-x86-vipi"
    ~wire:(X86_ops.ipi_wire_latency t.ops)
    receiver;
  let latency = Cycles.sub (Sim.current_time ()) start in
  resume_vm t;
  latency

(* The paper's observation: the kick costs about 40% of a hypercall on
   x86 because only the exit half is on the measured path — the host
   kernel (vhost) receives the eventfd signal before KVM re-enters the
   VM. *)
let io_latency_out t =
  Machine.count t.mark.io_out;
  given_vm_running t;
  let start = Sim.current_time () in
  exit_vm ~reason:Esr.Data_abort_lower t (* virtqueue kick MMIO *);
  Machine.spend t.step.kick_dispatch t.tun.kick_dispatch;
  let latency = Cycles.sub (Sim.current_time ()) start in
  resume_vm t;
  latency

let io_latency_in t =
  Machine.count t.mark.io_in;
  (* The VCPU thread blocked earlier: its exit is off the measured path. *)
  given_vcpu_blocked t;
  let start = Sim.current_time () in
  Machine.spend t.step.vhost_signal 300;
  let receiver () =
    Machine.spend t.step.vcpu_resume t.tun.vcpu_resume;
    Machine.spend t.step.irq_inject t.tun.irq_inject;
    resume_vm t;
    X86_ops.virq_guest_dispatch t.ops
  in
  Hypervisor.remote_completion t.machine ~name:"kvm-x86-io-in"
    ~wire:(X86_ops.ipi_wire_latency t.ops)
    receiver;
  Cycles.sub (Sim.current_time ()) start

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
  let eoi_cost =
    if hw.Cost_model.vapic then 71 else exit_entry + hw.Cost_model.eoi_emul
  in
  {
    Io_profile.notify_latency = hw.Cost_model.vmexit + t.tun.kick_dispatch;
    kick_guest_cpu = exit_entry;
    irq_delivery_latency =
      300 + hw.Cost_model.phys_ipi_wire + hw.Cost_model.vmexit
      + t.tun.irq_inject + hw.Cost_model.vmentry;
    irq_delivery_guest_cpu =
      exit_entry + t.tun.irq_inject + hw.Cost_model.virq_guest_dispatch;
    virq_completion = eoi_cost;
    vipi_guest_cpu =
      exit_entry + t.tun.icr_emulate + exit_entry + t.tun.irq_inject
      + hw.Cost_model.virq_guest_dispatch;
    backend_cpu_per_packet = t.tun.vhost_per_packet;
    rx_copy_per_byte = 0.0;
    tx_copy_per_byte = 0.0;
    rx_grant_per_packet = 0;
    tx_grant_per_packet = 0;
    guest_rx_per_packet = 500;
    guest_tx_per_packet = 400;
    irq_rate_factor = 1.0;
    phys_rx_extra_latency = 0;
    zero_copy = true;
  }

(* KVM x86 migration: identical software structure to KVM ARM (QEMU
   migration thread + vhost ring + dirty bitmap), but the logging fault
   is bracketed by the fixed-function VMCS transition pair instead of a
   software world switch. *)
let migrate_profile t =
  let hw, exit_entry = path_costs t in
  {
    Migrate_profile.transport = "vhost";
    wp_fault_guest_cpu =
      exit_entry + hw.Cost_model.stage2_wp_fault + hw.Cost_model.page_map_cost;
    harvest_per_page = hw.Cost_model.page_map_cost;
    page_copy_per_byte = hw.Cost_model.per_byte_copy;
    page_send_per_page = t.tun.vhost_per_packet;
    batch_kick = 300 (* eventfd signal, as in io_latency_in *);
    pause_vcpu = hw.Cost_model.vmexit + t.tun.dispatch;
    resume_vcpu = t.tun.vcpu_resume + hw.Cost_model.vmentry;
    state_transfer = t.tun.process_switch + exit_entry;
  }

let to_hypervisor t =
  {
    Hypervisor.name = "KVM x86";
    kind = Hypervisor.Type2;
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
