(** KVM ARM: split-mode virtualization (Dall & Nieh, ASPLOS'14; paper
    section II).

    The host kernel and the VMs share EL1; only a minimal lowvisor runs
    in EL2. Every transition between a VM and the hypervisor therefore
    (1) double-traps — into EL2 and back out to the host in EL1, (2)
    context switches the complete EL1 register state of Table III,
    including the expensive VGIC read-back, and (3) toggles Stage-2 and
    trap configuration both ways. These three structural costs are what
    this module's paths spell out, and what the VHE variant removes.

    When the machine is built with {!Armvirt_arch.Cost_model.arm_vhe},
    the same module models KVM on ARMv8.1 (section VI): the host runs in
    EL2, transitions skip the EL1 state switch and the toggles, and the
    double trap collapses into an ordinary exception. *)

type tuning = {
  lazy_fp : bool;
      (** Trap-and-switch FP state only on first guest use — the
          optimization mainlined after the paper (default [false], the
          measured KVM). *)
  lazy_vgic : bool;
      (** Read back only occupied list registers — the other post-paper
          optimization (default [false]). The [lazyswitch] experiment
          flips both. *)
  host_dispatch : int;
      (** Host-side KVM run loop: decode exit reason, dispatch, return
          (split-mode, host in EL1). *)
  vhe_dispatch : int;  (** Same work running directly in EL2 under VHE. *)
  gic_mmio_emulate : int;
      (** vGIC distributor emulation in the host kernel — the paper's
          point that KVM emulates the GIC "in the part of the hypervisor
          running in EL1". *)
  sgi_emulate : int;  (** Emulating a trapped SGI (IPI) register write. *)
  host_irq_route : int;
      (** Host path from a physical IRQ to the virtual interrupt
          injection (irqfd/vgic routing). *)
  process_switch : int;
      (** Linux scheduler + mm switch between two QEMU VM processes, paid
          on VM-to-VM switches. *)
  kick_dispatch_el1 : int;
      (** ioeventfd lookup + signal from a virtqueue kick, including the
          return to host EL1 context. *)
  kick_dispatch_vhe : int;  (** The same handled directly in EL2. *)
  vcpu_resume : int;
      (** Waking a blocked VCPU thread: scheduler wakeup, vcpu_load, run
          loop re-entry. Dominates I/O Latency In. *)
  vhost_per_packet : int;
      (** VHOST backend work per packet beyond the native driver path. *)
}

val default_tuning : tuning
(** Calibrated against Table II (see DESIGN.md section 3.2). *)

type t

val create : ?tuning:tuning -> Armvirt_arch.Machine.t -> t
(** Expects an ARM machine with ≥ 8 PCPUs: host confined to PCPUs 0-3,
    the measured VM's 4 VCPUs pinned to PCPUs 4-7 (section III's
    configuration). Raises [Invalid_argument] otherwise. *)

val machine : t -> Armvirt_arch.Machine.t
val vhe : t -> bool

val world : t -> pcpu:int -> Armvirt_arch.El2_state.t
(** The EL2 world state machine of one PCPU: every path below drives it
    alongside its cost accounting, so an illegal transition sequence in
    the model raises instead of mis-measuring. *)

(** {1 World-switch paths} — each must run inside a simulation process. *)

(** {1 Microbenchmark operations (Table I)} *)

val hypercall : t -> unit
val interrupt_controller_trap : t -> unit
val virtual_irq_completion : t -> unit
val vm_switch : t -> unit
val virtual_ipi : t -> Armvirt_engine.Cycles.t
val io_latency_out : t -> Armvirt_engine.Cycles.t
val io_latency_in : t -> Armvirt_engine.Cycles.t

val hypercall_breakdown :
  t -> (Armvirt_arch.Reg_class.t * int * int) list
(** Per-class (save, restore) costs of the world switch — regenerates
    Table III from the model's instrumentation. *)

val io_profile : t -> Io_profile.t
val migrate_profile : t -> Migrate_profile.t

val to_hypervisor : t -> Hypervisor.t
