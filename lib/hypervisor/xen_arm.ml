module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Arm_ops = Armvirt_arch.Arm_ops
module Cost_model = Armvirt_arch.Cost_model
module Reg_class = Armvirt_arch.Reg_class
module Vgic = Armvirt_gic.Vgic
module Distributor = Armvirt_gic.Distributor
module El2_state = Armvirt_arch.El2_state
module Event_channel = Armvirt_io.Event_channel
module Kernel_costs = Armvirt_guest.Kernel_costs
module Esr = Armvirt_arch.Esr
module Transitions = Armvirt_arch.Transitions
module Marker = Armvirt_obs.Marker

type pinning = Separate | Shared

type tuning = {
  trap_save : int;
  trap_restore : int;
  hypercall_dispatch : int;
  gic_mmio_emulate : int;
  sgi_emulate : int;
  irq_route : int;
  sched_pick : int;
  evtchn_send : int;
  dom0_upcall : int;
  dom0_signal_path : int;
  evtchn_demux : int;
  grant_copy_fixed : int;
  grant_map_zero_copy : int;
  netback_per_packet : int;
}

let default_tuning =
  {
    trap_save = 90;
    trap_restore = 90;
    hypercall_dispatch = 40;
    gic_mmio_emulate = 966;
    sgi_emulate = 1800;
    irq_route = 2235;
    sched_pick = 2951;
    evtchn_send = 500;
    dom0_upcall = 5553;
    dom0_signal_path = 4700;
    evtchn_demux = 640;
    grant_copy_fixed = 7200;
    grant_map_zero_copy = 1800;
    netback_per_packet = 3300;
  }

(* The model's priced steps, interned at [create]. *)
type steps = {
  trap_save : Machine.op;
  trap_restore : Machine.op;
  sched_pick : Machine.op;
  dispatch : Machine.op;
  gic_mmio_emulate : Machine.op;
  sgi_emulate : Machine.op;
  irq_route : Machine.op;
  evtchn_send : Machine.op;
  dom0_upcall : Machine.op;
  dom0_signal_path : Machine.op;
}

type t = {
  ops : Arm_ops.t;
  tun : tuning;
  machine : Machine.t;
  step : steps;
  mark : Hypervisor.marks;
  vm_switch_inner : Machine.marker;
  virq_injected : Machine.marker;
  dom0 : Vm.t;
  domu : Vm.t;
  channels : Event_channel.t;
  io_port : Event_channel.port;  (* netfront -> netback *)
  irq_port : Event_channel.port;  (* netback -> netfront *)
  pinning : pinning;
  guest : Kernel_costs.t;
  world : El2_state.t array;  (* one EL2 world state per PCPU *)
  phys_gic : Distributor.t;  (* the machine's physical GIC *)
}

let create ?(tuning = default_tuning) ?(pinning = Separate) machine =
  if Machine.num_cpus machine < 8 then
    invalid_arg "Xen_arm.create: needs >= 8 PCPUs (paper testbed)";
  let ops = Arm_ops.create machine in
  let domu_pcpus =
    match pinning with Separate -> [ 4; 5; 6; 7 ] | Shared -> [ 0; 1; 2; 3 ]
  in
  let dom0 = Vm.create ~domid:0 ~name:"Dom0" ~pcpus:[ 0; 1; 2; 3 ] in
  let domu = Vm.create ~domid:1 ~name:"DomU" ~pcpus:domu_pcpus in
  Vm.map_memory dom0 ~pages:1024 ~base_pa_page:0x10000;
  Vm.map_memory domu ~pages:1024 ~base_pa_page:0x20000;
  let channels = Event_channel.create () in
  let io_port = Event_channel.alloc channels ~from_dom:1 ~to_dom:0 in
  let irq_port = Event_channel.alloc channels ~from_dom:0 ~to_dom:1 in
  let world =
    Array.init (Machine.num_cpus machine) (fun _ ->
        El2_state.create El2_state.El2_resident)
  in
  let phys_gic = Distributor.create ~num_cpus:(Machine.num_cpus machine) in
  Distributor.enable phys_gic 1;
  let op = Machine.op machine in
  {
    ops;
    tun = tuning;
    machine;
    step =
      {
        trap_save = op Trap "xen_arm.trap_save";
        trap_restore = op Trap "xen_arm.trap_restore";
        sched_pick = op Sched "xen_arm.sched_pick";
        dispatch = op Trap "xen_arm.dispatch";
        gic_mmio_emulate = op Trap "xen_arm.gic_mmio_emulate";
        sgi_emulate = op Trap "xen_arm.sgi_emulate";
        irq_route = op Irq "xen_arm.irq_route";
        evtchn_send = op Irq "xen_arm.evtchn_send";
        dom0_upcall = op Vmexit "xen_arm.dom0_upcall";
        dom0_signal_path = op Io "xen_arm.dom0_signal_path";
      };
    mark = Hypervisor.marks machine ~hyp:"xen_arm";
    vm_switch_inner =
      Machine.marker machine (Marker.op ~hyp:"xen_arm" Other "vm_switch_inner");
    virq_injected =
      Machine.marker machine (Marker.op ~hyp:"xen_arm" Irq "virq_injected");
    dom0;
    domu;
    channels;
    io_port;
    irq_port;
    pinning;
    guest = Kernel_costs.defaults;
    world;
    phys_gic;
  }

let machine t = t.machine
let world t ~pcpu = t.world.(pcpu)

(* DomU VCPU0 runs on PCPU 4 under the paper's pinning, PCPU 0 when
   sharing with Dom0; Dom0 VCPU0 runs on PCPU 0; the idle domain is
   domid -1. *)
let domu_pcpu t = match t.pinning with Separate -> 4 | Shared -> 0
let dom0_pcpu = 0
let idle_domid = -1

let given_vm_running t ~pcpu ~domid =
  El2_state.establish t.world.(pcpu) ~el1:(El2_state.Vm domid)
    ~executing:(`Vm domid)

let mark_exit t ~pcpu reason =
  Machine.count
    (Transitions.exit t.mark.transitions (Esr.marker_reason reason) ~pcpu)

let mark_entry t ~pcpu ~domid =
  Machine.count (Transitions.entry ~domid t.mark.transitions ~pcpu)

let trap_to_xen ?(pcpu = 4) ?(reason = Esr.Hvc64) t =
  mark_exit t ~pcpu reason;
  El2_state.exit_to_el2 t.world.(pcpu);
  Arm_ops.trap_to_el2 t.ops;
  Machine.spend t.step.trap_save t.tun.trap_save

let return_from_xen ?(pcpu = 4) ?(domid = 1) t =
  Machine.spend t.step.trap_restore t.tun.trap_restore;
  Arm_ops.eret t.ops;
  El2_state.enter_vm t.world.(pcpu) ~domid;
  mark_entry t ~pcpu ~domid

(* Deschedule the current domain, pick another, run it: one full EL1 +
   VGIC context switch — the only case where Xen pays Table III-scale
   costs, which is why its VM Switch is only modestly cheaper than
   KVM's (section IV). *)
let full_vm_switch ?(pcpu = 4) ?(to_domid = 1) t =
  Machine.count t.vm_switch_inner;
  Arm_ops.save_classes t.ops Reg_class.full_world_switch;
  Machine.spend t.step.sched_pick t.tun.sched_pick;
  Arm_ops.restore_classes t.ops Reg_class.full_world_switch;
  El2_state.load_el1 t.world.(pcpu) (El2_state.Vm to_domid)

let inject_virq t (vcpu : Vm.vcpu) irq =
  Arm_ops.vgic_slot_scan t.ops;
  Arm_ops.vgic_lr_write t.ops;
  Vgic.inject_or_queue vcpu.Vm.vgic irq;
  Machine.count t.virq_injected

let hypercall t =
  Machine.count t.mark.hypercall;
  let pcpu = domu_pcpu t in
  given_vm_running t ~pcpu ~domid:1;
  Arm_ops.hvc_issue t.ops;
  trap_to_xen ~pcpu t;
  Machine.spend t.step.dispatch t.tun.hypercall_dispatch;
  return_from_xen ~pcpu t

let interrupt_controller_trap t =
  Machine.count t.mark.ict;
  let pcpu = domu_pcpu t in
  given_vm_running t ~pcpu ~domid:1;
  trap_to_xen ~pcpu ~reason:Esr.Data_abort_lower t;
  Arm_ops.mmio_decode t.ops;
  Machine.spend t.step.gic_mmio_emulate t.tun.gic_mmio_emulate;
  return_from_xen ~pcpu t

let virtual_irq_completion t =
  Machine.count t.mark.virq_completion;
  Arm_ops.virq_complete t.ops

let vm_switch t =
  Machine.count t.mark.vm_switch;
  let pcpu = domu_pcpu t in
  given_vm_running t ~pcpu ~domid:1;
  mark_exit t ~pcpu Esr.Irq (* the scheduler tick preempts *);
  El2_state.exit_to_el2 t.world.(pcpu);
  Arm_ops.trap_to_el2 t.ops;
  full_vm_switch ~pcpu ~to_domid:2 t;
  Arm_ops.eret t.ops;
  El2_state.enter_vm t.world.(pcpu) ~domid:2;
  mark_entry t ~pcpu ~domid:2

(* Both VCPUs execute VM code; the whole exchange stays in EL2 on both
   sides — roughly twice as fast as KVM's host-mediated version. *)
let virtual_ipi t =
  Machine.count t.mark.vipi;
  let pcpu = domu_pcpu t in
  let peer = pcpu + 1 in
  given_vm_running t ~pcpu ~domid:1;
  given_vm_running t ~pcpu:peer ~domid:1;
  let start = Sim.current_time () in
  trap_to_xen ~pcpu ~reason:Esr.Data_abort_lower t (* GICD_SGIR write *);
  Machine.spend t.step.sgi_emulate t.tun.sgi_emulate;
  Distributor.send_sgi t.phys_gic 1 ~from:pcpu ~targets:[ peer ];
  let receiver () =
    (match Distributor.acknowledge t.phys_gic ~cpu:peer with
    | Some 1 -> ()
    | Some _ | None -> failwith "Xen_arm: spurious physical interrupt");
    trap_to_xen ~pcpu:peer ~reason:Esr.Irq t;
    Machine.spend t.step.irq_route t.tun.irq_route;
    Distributor.end_of_interrupt t.phys_gic 1 ~cpu:peer;
    inject_virq t (Vm.vcpu t.domu 1) 1;
    return_from_xen ~pcpu:peer t;
    Arm_ops.virq_guest_dispatch t.ops
  in
  Hypervisor.remote_completion t.machine ~name:"xen-vipi-receiver"
    ~wire:(Arm_ops.ipi_wire_latency t.ops)
    receiver;
  let latency = Cycles.sub (Sim.current_time ()) start in
  return_from_xen ~pcpu t;
  latency

(* DomU kick -> netback in Dom0. Trap to EL2 is cheap, but then: event
   channel, physical IPI to Dom0's PCPU, full VM switch away from the
   idle domain, and the Linux upcall chain inside Dom0 — "Xen must
   engage Dom0 to perform I/O on behalf of the VM" (section V). Under
   Shared pinning the IPI disappears but the DomU PCPU must be preempted
   with an extra full VM switch, which the paper found "similar or
   worse". *)
let io_latency_out t =
  Machine.count t.mark.io_out;
  let pcpu = domu_pcpu t in
  given_vm_running t ~pcpu ~domid:1;
  (* Dom0 idles between requests: the idle domain holds its PCPU
     (under shared pinning Dom0 has no PCPU of its own). *)
  (match t.pinning with
  | Separate -> given_vm_running t ~pcpu:dom0_pcpu ~domid:idle_domid
  | Shared -> ());
  let start = Sim.current_time () in
  Arm_ops.hvc_issue t.ops;
  trap_to_xen ~pcpu t;
  Machine.spend t.step.evtchn_send t.tun.evtchn_send;
  Event_channel.send t.channels t.io_port;
  let dom0_side ~on =
    mark_exit t ~pcpu:on Esr.Irq (* event-channel IPI lands in EL2 *);
    El2_state.exit_to_el2 t.world.(on);
    Arm_ops.trap_to_el2 t.ops;
    (* idle domain -> Dom0 *)
    full_vm_switch ~pcpu:on ~to_domid:0 t;
    inject_virq t (Vm.vcpu t.dom0 0) 17;
    Arm_ops.eret t.ops;
    El2_state.enter_vm t.world.(on) ~domid:0;
    mark_entry t ~pcpu:on ~domid:0;
    Arm_ops.virq_guest_dispatch t.ops;
    ignore (Event_channel.consume t.channels t.io_port);
    Machine.spend t.step.dom0_upcall t.tun.dom0_upcall
  in
  (match t.pinning with
  | Separate ->
      Hypervisor.remote_completion t.machine ~name:"xen-io-out-dom0"
        ~wire:(Arm_ops.ipi_wire_latency t.ops)
        (fun () -> dom0_side ~on:dom0_pcpu)
  | Shared ->
      (* Same PCPU: no IPI, but the VM itself must be switched out
         before Dom0 can run at all. *)
      full_vm_switch ~pcpu ~to_domid:idle_domid t;
      dom0_side ~on:pcpu);
  Cycles.sub (Sim.current_time ()) start

(* Netback completion in Dom0 -> DomU's interrupt handler: the mirror
   image, switching the idle domain for DomU on the target PCPU. *)
let io_latency_in t =
  Machine.count t.mark.io_in;
  let pcpu = domu_pcpu t in
  (* Dom0 is running (it has data to deliver); DomU blocked for I/O, so
     the idle domain holds its PCPU. *)
  given_vm_running t ~pcpu:dom0_pcpu ~domid:0;
  (match t.pinning with
  | Separate -> given_vm_running t ~pcpu ~domid:idle_domid
  | Shared -> ());
  let start = Sim.current_time () in
  Machine.spend t.step.dom0_signal_path t.tun.dom0_signal_path;
  Arm_ops.hvc_issue t.ops;
  trap_to_xen ~pcpu:dom0_pcpu t;
  Machine.spend t.step.evtchn_send t.tun.evtchn_send;
  Event_channel.send t.channels t.irq_port;
  let domu_side ~on =
    mark_exit t ~pcpu:on Esr.Irq (* event-channel IPI lands in EL2 *);
    El2_state.exit_to_el2 t.world.(on);
    Arm_ops.trap_to_el2 t.ops;
    (* idle domain -> DomU *)
    full_vm_switch ~pcpu:on ~to_domid:1 t;
    inject_virq t (Vm.vcpu t.domu 0) 48;
    Arm_ops.eret t.ops;
    El2_state.enter_vm t.world.(on) ~domid:1;
    mark_entry t ~pcpu:on ~domid:1;
    ignore (Event_channel.consume t.channels t.irq_port);
    Arm_ops.virq_guest_dispatch t.ops
  in
  let finish () = Cycles.sub (Sim.current_time ()) start in
  match t.pinning with
  | Separate ->
      Hypervisor.remote_completion t.machine ~name:"xen-io-in-domu"
        ~wire:(Arm_ops.ipi_wire_latency t.ops)
        (fun () -> domu_side ~on:pcpu);
      let r = finish () in
      return_from_xen ~pcpu:dom0_pcpu ~domid:0 t;
      r
  | Shared ->
      (* Dom0 and DomU share PCPUs: Dom0 must be descheduled first. *)
      full_vm_switch ~pcpu:dom0_pcpu ~to_domid:idle_domid t;
      domu_side ~on:pcpu;
      finish ()

let path_costs t =
  let hw = Arm_ops.hw t.ops in
  let trap_cost = hw.Cost_model.trap_to_el2 + t.tun.trap_save in
  let return_cost = t.tun.trap_restore + hw.Cost_model.eret in
  let switch_cost =
    Cost_model.arm_full_save hw + t.tun.sched_pick
    + Cost_model.arm_full_restore hw
  in
  let inject = hw.Cost_model.vgic_slot_scan + hw.Cost_model.vgic_lr_write in
  (hw, trap_cost, return_cost, switch_cost, inject)

(* The hypercall between its exit and entry markers: the trap into Xen,
   the dispatch, the return. *)
let hypercall_exit_entry t =
  let _, trap_cost, return_cost, _, _ = path_costs t in
  trap_cost + t.tun.hypercall_dispatch + return_cost

let make_io_profile t ~zero_copy =
  let hw, trap_cost, return_cost, switch_cost, inject = path_costs t in
  let wire = hw.Cost_model.phys_ipi_wire in
  let notify_latency =
    hw.Cost_model.hvc_issue + trap_cost + t.tun.evtchn_send + wire
    + hw.Cost_model.trap_to_el2 + switch_cost + inject + hw.Cost_model.eret
    + hw.Cost_model.virq_guest_dispatch + t.tun.dom0_upcall
  in
  let irq_delivery_latency =
    t.tun.dom0_signal_path + hw.Cost_model.hvc_issue + trap_cost
    + t.tun.evtchn_send + wire + hw.Cost_model.trap_to_el2 + switch_cost
    + inject + hw.Cost_model.eret + hw.Cost_model.virq_guest_dispatch
  in
  {
    Io_profile.notify_latency;
    (* DomU's own CPU only pays the cheap trap for a kick... *)
    kick_guest_cpu = hw.Cost_model.hvc_issue + trap_cost + t.tun.evtchn_send
                     + return_cost;
    irq_delivery_latency;
    (* ...and, when the VM is running, a trap + injection for delivery. *)
    (* Per delivered interrupt, the DomU PCPU pays: Xen's physical
       IRQ routing in EL2 (stolen from the VCPU), the injection trap, and
       the guest's event-channel demux chain. *)
    irq_delivery_guest_cpu =
      trap_cost + t.tun.irq_route + inject + return_cost
      + hw.Cost_model.virq_guest_dispatch + t.tun.evtchn_demux;
    virq_completion = hw.Cost_model.virq_complete;
    vipi_guest_cpu =
      trap_cost + t.tun.sgi_emulate + return_cost + trap_cost
      + t.tun.irq_route + inject + return_cost
      + hw.Cost_model.virq_guest_dispatch;
    backend_cpu_per_packet = t.tun.netback_per_packet;
    rx_copy_per_byte = (if zero_copy then 0.0 else hw.Cost_model.per_byte_copy);
    tx_copy_per_byte = (if zero_copy then 0.0 else hw.Cost_model.per_byte_copy);
    rx_grant_per_packet =
      (if zero_copy then t.tun.grant_map_zero_copy else t.tun.grant_copy_fixed);
    tx_grant_per_packet =
      (if zero_copy then t.tun.grant_map_zero_copy else t.tun.grant_copy_fixed);
    guest_rx_per_packet = 2800;
    guest_tx_per_packet = 2600;
    irq_rate_factor = 1.8;
    (* The NIC's IRQ lands in EL2 but the driver is in Dom0: switch the
       idle domain out before the frame is even seen (section V). *)
    phys_rx_extra_latency =
      hw.Cost_model.trap_to_el2 + switch_cost + inject + hw.Cost_model.eret
      + hw.Cost_model.virq_guest_dispatch;
    zero_copy;
  }

let io_profile t = make_io_profile t ~zero_copy:false
let io_profile_zero_copy t = make_io_profile t ~zero_copy:true

(* Live migration, Xen-style: the toolstack in Dom0 drives log-dirty
   mode and pulls every page through a grant copy, with event-channel
   batching. Faults trap to the EL2-resident hypervisor cheaply, but the
   per-page grant machinery makes rounds long — the same trade the I/O
   path shows (cheap kick, expensive data movement). *)
let migrate_profile t =
  let hw, trap_cost, return_cost, switch_cost, _inject = path_costs t in
  {
    Migrate_profile.transport = "grant";
    wp_fault_guest_cpu =
      trap_cost + hw.Cost_model.stage2_wp_fault + hw.Cost_model.page_map_cost
      + hw.Cost_model.tlb_local_invalidate + return_cost;
    harvest_per_page =
      hw.Cost_model.page_map_cost + hw.Cost_model.tlb_local_invalidate;
    page_copy_per_byte = hw.Cost_model.per_byte_copy;
    page_send_per_page = t.tun.grant_copy_fixed;
    batch_kick = t.tun.evtchn_send + t.tun.dom0_upcall;
    pause_vcpu = trap_cost + t.tun.sched_pick;
    resume_vcpu = switch_cost + return_cost;
    state_transfer = Cost_model.arm_full_save hw + Cost_model.arm_full_restore hw;
  }

let to_hypervisor t =
  {
    Hypervisor.name = "Xen ARM";
    kind = Hypervisor.Type1;
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
