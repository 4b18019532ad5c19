module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Arm_ops = Armvirt_arch.Arm_ops
module Cost_model = Armvirt_arch.Cost_model
module Reg_class = Armvirt_arch.Reg_class
module Vgic = Armvirt_gic.Vgic
module Distributor = Armvirt_gic.Distributor
module El2_state = Armvirt_arch.El2_state
module Esr = Armvirt_arch.Esr
module Kernel_costs = Armvirt_guest.Kernel_costs
module Transitions = Armvirt_arch.Transitions
module Marker = Armvirt_obs.Marker

type tuning = {
  lazy_fp : bool;
      (* Trap-and-switch FP state only when the VM touches it (the
         optimization mainlined after the paper; the paper's KVM
         switched FP eagerly, so the default is false). *)
  lazy_vgic : bool;
      (* Only read back occupied list registers instead of the whole
         virtual interface — the other post-paper optimization. With no
         interrupts in flight the 3,250-cycle read collapses. *)
  host_dispatch : int;
  vhe_dispatch : int;
  gic_mmio_emulate : int;
  sgi_emulate : int;
  host_irq_route : int;
  process_switch : int;
  kick_dispatch_el1 : int;
  kick_dispatch_vhe : int;
  vcpu_resume : int;
  vhost_per_packet : int;
}

let default_tuning =
  {
    lazy_fp = false;
    lazy_vgic = false;
    host_dispatch = 380;
    vhe_dispatch = 150;
    gic_mmio_emulate = 1196;
    sgi_emulate = 60;
    host_irq_route = 100;
    process_switch = 4283;
    kick_dispatch_el1 = 1562;
    kick_dispatch_vhe = 80;
    vcpu_resume = 10403;
    vhost_per_packet = 1500;
  }

(* The model's priced steps, interned at [create]. *)
type steps = {
  host_dispatch : Machine.op;
  gic_mmio_emulate : Machine.op;
  process_switch : Machine.op;
  sgi_emulate : Machine.op;
  host_irq_route : Machine.op;
  kick_dispatch : Machine.op;
  vhost_signal : Machine.op;
  vcpu_resume : Machine.op;
}

type t = {
  ops : Arm_ops.t;
  tun : tuning;
  machine : Machine.t;
  step : steps;
  mark : Hypervisor.marks;
  virq_injected : Machine.marker;
  vm : Vm.t;
  guest : Kernel_costs.t;
  world : El2_state.t array;  (* one EL2 world state per PCPU *)
  phys_gic : Distributor.t;  (* the machine's physical GIC *)
}

let create ?(tuning = default_tuning) machine =
  if Machine.num_cpus machine < 8 then
    invalid_arg "Kvm_arm.create: needs >= 8 PCPUs (paper testbed)";
  let ops = Arm_ops.create machine in
  let vm = Vm.create ~domid:1 ~name:"VM" ~pcpus:[ 4; 5; 6; 7 ] in
  Vm.map_memory vm ~pages:1024 ~base_pa_page:0x10000;
  let mode =
    if Arm_ops.vhe_enabled ops then El2_state.Vhe else El2_state.Split_mode
  in
  let world =
    Array.init (Machine.num_cpus machine) (fun _ -> El2_state.create mode)
  in
  let phys_gic = Distributor.create ~num_cpus:(Machine.num_cpus machine) in
  (* SGI 1 carries cross-CPU kicks, as in Linux's IPI assignment. *)
  Distributor.enable phys_gic 1;
  let op = Machine.op machine in
  {
    ops;
    tun = tuning;
    machine;
    step =
      {
        host_dispatch = op Trap "kvm_arm.host_dispatch";
        gic_mmio_emulate = op Trap "kvm_arm.gic_mmio_emulate";
        process_switch = op Vmexit "kvm_arm.process_switch";
        sgi_emulate = op Trap "kvm_arm.sgi_emulate";
        host_irq_route = op Irq "kvm_arm.host_irq_route";
        kick_dispatch = op Trap "kvm_arm.kick_dispatch";
        vhost_signal = op Io "kvm_arm.vhost_signal";
        vcpu_resume = op Vmexit "kvm_arm.vcpu_resume";
      };
    mark = Hypervisor.marks machine ~hyp:"kvm_arm";
    virq_injected =
      Machine.marker machine (Marker.op ~hyp:"kvm_arm" Irq "virq_injected");
    vm;
    guest = Kernel_costs.defaults;
    world;
    phys_gic;
  }

let machine t = t.machine
let vhe t = Arm_ops.vhe_enabled t.ops
let world t ~pcpu = t.world.(pcpu)

(* VCPU0 of the measured VM is pinned to PCPU 4 (section III). *)
let vcpu0_pcpu = 4

(* VM -> host transition. Split-mode: trap to EL2, switch the full EL1
   world (Table III), turn the virtualization features off so the host
   owns EL1, and exception-return into the host kernel. VHE: the host
   already lives in EL2 — a plain trap plus a GP spill. *)
(* Which classes an exit really switches, given the lazy-switching
   optimizations that followed the paper. Lazy VGIC still pays a cheap
   occupancy check (modelled as the slot-scan read). *)
let eager_exit_classes t =
  List.filter
    (fun cls ->
      match cls with
      | Reg_class.Fp -> not t.tun.lazy_fp
      | Reg_class.Vgic -> not t.tun.lazy_vgic
      | _ -> true)
    Reg_class.full_world_switch

let exit_to_host ?(pcpu = vcpu0_pcpu) ?(reason = Esr.Hvc64) t =
  (* The lowvisor's first act: decode the syndrome and classify. The
     marker label is the kvm_stat-style exit record consumed by
     Armvirt_obs.Accounting. *)
  Machine.count
    (Transitions.exit t.mark.transitions (Esr.marker_reason reason) ~pcpu);
  let w = t.world.(pcpu) in
  El2_state.exit_to_el2 w;
  Arm_ops.trap_to_el2 t.ops;
  if vhe t then begin
    Arm_ops.save_classes t.ops Reg_class.trap_only;
    El2_state.run_host w
  end
  else begin
    Arm_ops.save_classes t.ops (eager_exit_classes t);
    if t.tun.lazy_vgic then Arm_ops.vgic_slot_scan t.ops;
    El2_state.load_el1 w El2_state.Host;
    Arm_ops.stage2_disable t.ops;
    El2_state.disable_virtualization w;
    Arm_ops.eret t.ops (* double trap: down to the host in EL1 *);
    El2_state.run_host w
  end

(* Host -> VM: re-arm the virtualization features and restore the VM's
   EL1 world. *)
let enter_vm ?(pcpu = vcpu0_pcpu) ?(domid = 1) t =
  let w = t.world.(pcpu) in
  if vhe t then begin
    Arm_ops.restore_classes t.ops Reg_class.trap_only;
    El2_state.load_el1 w (El2_state.Vm domid);
    Arm_ops.eret t.ops;
    El2_state.enter_vm w ~domid
  end
  else begin
    Arm_ops.hvc_issue t.ops;
    Arm_ops.trap_to_el2 t.ops (* host traps up to EL2 to switch *);
    El2_state.exit_to_el2 w;
    Arm_ops.stage2_enable t.ops;
    El2_state.enable_virtualization w;
    Arm_ops.restore_classes t.ops (eager_exit_classes t);
    El2_state.load_el1 w (El2_state.Vm domid);
    Arm_ops.eret t.ops;
    El2_state.enter_vm w ~domid
  end;
  (* Marked after the restore path so the exit->entry marker distance is
     the full world-switch latency, like kvm_entry after vcpu_load. *)
  Machine.count (Transitions.entry ~domid t.mark.transitions ~pcpu)

let dispatch_cost t = if vhe t then t.tun.vhe_dispatch else t.tun.host_dispatch

(* Benchmark preconditions (off the measured path): the VM is executing
   on its PCPU, or the VCPU blocked earlier and the host owns it. *)
let given_vm_running ?(pcpu = vcpu0_pcpu) ?(domid = 1) t =
  El2_state.establish t.world.(pcpu) ~el1:(El2_state.Vm domid)
    ~executing:(`Vm domid)

let given_vcpu_blocked ?(pcpu = vcpu0_pcpu) t =
  if vhe t then
    El2_state.establish t.world.(pcpu) ~el1:(El2_state.Vm (-1))
      ~executing:`Host
  else
    El2_state.establish t.world.(pcpu) ~el1:El2_state.Host ~executing:`Host

let inject_virq t (vcpu : Vm.vcpu) irq =
  Arm_ops.vgic_slot_scan t.ops;
  Arm_ops.vgic_lr_write t.ops;
  Vgic.inject_or_queue vcpu.Vm.vgic irq;
  Machine.count t.virq_injected

let hypercall t =
  Machine.count t.mark.hypercall;
  given_vm_running t;
  Arm_ops.hvc_issue t.ops;
  exit_to_host t;
  Machine.spend t.step.host_dispatch (dispatch_cost t);
  enter_vm t

let interrupt_controller_trap t =
  Machine.count t.mark.ict;
  given_vm_running t;
  exit_to_host ~reason:Esr.Data_abort_lower t;
  Arm_ops.mmio_decode t.ops;
  Machine.spend t.step.gic_mmio_emulate t.tun.gic_mmio_emulate;
  enter_vm t

let virtual_irq_completion t =
  Machine.count t.mark.virq_completion;
  (* Hardware vGIC CPU interface: no hypervisor involvement at all. *)
  Arm_ops.virq_complete t.ops

let vm_switch t =
  Machine.count t.mark.vm_switch;
  (* VM1 -> host (full switch), Linux picks the other VM's QEMU process,
     host -> VM2 (full switch again): EL1 state crosses memory twice,
     which is why KVM only loses slightly to Xen here (section IV). *)
  given_vm_running t;
  exit_to_host ~reason:Esr.Irq t (* the scheduler tick preempts *);
  Machine.spend t.step.process_switch t.tun.process_switch;
  enter_vm ~domid:2 t

(* Sender VCPU writes the emulated SGI register; the host emulates it and
   fires a physical IPI; the receiving VCPU (in the VM on another PCPU)
   takes a physical interrupt to EL2, which the host turns into a virtual
   interrupt injection, then re-enters the VM. *)
let virtual_ipi t =
  Machine.count t.mark.vipi;
  given_vm_running t;
  given_vm_running ~pcpu:5 t;
  let start = Sim.current_time () in
  exit_to_host ~reason:Esr.Data_abort_lower t (* GICD_SGIR write *);
  Machine.spend t.step.sgi_emulate t.tun.sgi_emulate;
  (* The host's SGI emulation fires a real SGI through the physical
     distributor to the target PCPU. *)
  Distributor.send_sgi t.phys_gic 1 ~from:vcpu0_pcpu ~targets:[ 5 ];
  let receiver () =
    (match Distributor.acknowledge t.phys_gic ~cpu:5 with
    | Some 1 -> ()
    | Some _ | None -> failwith "Kvm_arm: spurious physical interrupt");
    exit_to_host ~pcpu:5 ~reason:Esr.Irq t;
    Machine.spend t.step.host_irq_route t.tun.host_irq_route;
    Distributor.end_of_interrupt t.phys_gic 1 ~cpu:5;
    inject_virq t (Vm.vcpu t.vm 1) 1;
    enter_vm ~pcpu:5 t;
    Arm_ops.virq_guest_dispatch t.ops
  in
  Hypervisor.remote_completion t.machine ~name:"kvm-vipi-receiver"
    ~wire:(Arm_ops.ipi_wire_latency t.ops)
    receiver;
  let latency = Cycles.sub (Sim.current_time ()) start in
  (* The sender still has to return to its VM, off the measured path. *)
  enter_vm t;
  latency

let kick_dispatch t =
  if vhe t then t.tun.kick_dispatch_vhe else t.tun.kick_dispatch_el1

(* Virtqueue kick: MMIO trap, host ioeventfd signal. The endpoint is the
   host kernel (the virtual device) seeing the signal — matching the
   microbenchmark's definition ("for KVM, this traps to the host
   kernel"). *)
let io_latency_out t =
  Machine.count t.mark.io_out;
  given_vm_running t;
  let start = Sim.current_time () in
  exit_to_host ~reason:Esr.Data_abort_lower t (* virtqueue kick MMIO *);
  Arm_ops.mmio_decode t.ops;
  Machine.spend t.step.kick_dispatch (kick_dispatch t);
  let latency = Cycles.sub (Sim.current_time ()) start in
  enter_vm t;
  latency

(* VHOST signals the VCPU: wake the blocked VCPU thread on its PCPU
   (scheduler wakeup + vcpu_load + run-loop re-entry), inject the virtual
   interrupt, enter the VM. *)
let io_latency_in t =
  Machine.count t.mark.io_in;
  (* The VM blocked in WFI earlier; its exit is off the measured path. *)
  given_vcpu_blocked t;
  let start = Sim.current_time () in
  Machine.spend t.step.vhost_signal 300;
  let receiver () =
    Machine.spend t.step.vcpu_resume t.tun.vcpu_resume;
    inject_virq t (Vm.vcpu t.vm 0) 48;
    enter_vm t;
    Arm_ops.virq_guest_dispatch t.ops
  in
  Hypervisor.remote_completion t.machine ~name:"kvm-io-in"
    ~wire:(Arm_ops.ipi_wire_latency t.ops)
    receiver;
  Cycles.sub (Sim.current_time ()) start

let hypercall_breakdown t =
  let hw = Arm_ops.hw t.ops in
  List.map
    (fun cls ->
      let costs = hw.Cost_model.reg cls in
      (cls, costs.Cost_model.save, costs.Cost_model.restore))
    Reg_class.all

(* Static path sums for the application model; kept in one place so the
   profile provably matches the simulated paths above. *)
let path_costs t =
  let hw = Arm_ops.hw t.ops in
  let lazy_scan = if t.tun.lazy_vgic then hw.Cost_model.vgic_slot_scan else 0 in
  let exit_cost =
    if vhe t then
      hw.Cost_model.trap_to_el2 + Cost_model.arm_save hw Reg_class.trap_only
    else
      hw.Cost_model.trap_to_el2
      + Cost_model.arm_save hw (eager_exit_classes t)
      + lazy_scan
      + hw.Cost_model.stage2_toggle + hw.Cost_model.eret
  in
  let entry_cost =
    if vhe t then
      Cost_model.arm_restore hw Reg_class.trap_only + hw.Cost_model.eret
    else
      hw.Cost_model.hvc_issue + hw.Cost_model.trap_to_el2
      + hw.Cost_model.stage2_toggle
      + Cost_model.arm_restore hw (eager_exit_classes t)
      + hw.Cost_model.eret
  in
  (hw, exit_cost, entry_cost)

(* The hypercall between its exit and entry markers: one exit, the host
   dispatch, one entry. *)
let hypercall_exit_entry t =
  let _, exit_cost, entry_cost = path_costs t in
  exit_cost + dispatch_cost t + entry_cost

let io_profile t =
  let hw, exit_cost, entry_cost = path_costs t in
  let inject = hw.Cost_model.vgic_slot_scan + hw.Cost_model.vgic_lr_write in
  let irq_delivery_guest_cpu =
    exit_cost + t.tun.host_irq_route + inject + entry_cost
    + hw.Cost_model.virq_guest_dispatch
  in
  {
    Io_profile.notify_latency =
      exit_cost + hw.Cost_model.mmio_decode + kick_dispatch t;
    kick_guest_cpu = exit_cost + hw.Cost_model.mmio_decode + entry_cost;
    irq_delivery_latency =
      300 + hw.Cost_model.phys_ipi_wire + exit_cost + t.tun.host_irq_route
      + inject + entry_cost;
    irq_delivery_guest_cpu;
    virq_completion = hw.Cost_model.virq_complete;
    vipi_guest_cpu =
      exit_cost + t.tun.sgi_emulate + entry_cost + irq_delivery_guest_cpu;
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

(* Live migration, KVM-style: a QEMU migration thread harvests the
   dirty bitmap (KVM_GET_DIRTY_LOG) and streams pages through a vhost
   ring. The dirty-logging fault is a full VM exit + re-entry around the
   fault handler, so the VHE and split-mode profiles diverge by exactly
   the Table III world-switch the paper measures. *)
let migrate_profile t =
  let hw, exit_cost, entry_cost = path_costs t in
  {
    Migrate_profile.transport = "vhost";
    wp_fault_guest_cpu =
      exit_cost + hw.Cost_model.stage2_wp_fault + hw.Cost_model.page_map_cost
      + hw.Cost_model.tlb_local_invalidate + entry_cost;
    harvest_per_page =
      hw.Cost_model.page_map_cost + hw.Cost_model.tlb_local_invalidate;
    page_copy_per_byte = hw.Cost_model.per_byte_copy;
    page_send_per_page = t.tun.vhost_per_packet;
    batch_kick = 300 (* eventfd signal, as in io_latency_in *);
    pause_vcpu = exit_cost + dispatch_cost t;
    resume_vcpu = t.tun.vcpu_resume + entry_cost;
    state_transfer = Cost_model.arm_full_save hw + Cost_model.arm_full_restore hw;
  }

let to_hypervisor t =
  {
    Hypervisor.name = (if vhe t then "KVM ARM (VHE)" else "KVM ARM");
    kind = Hypervisor.Type2;
    arch = Hypervisor.Arm;
    machine = t.machine;
    barrier_cost = Arm_ops.barrier_cost t.ops;
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
