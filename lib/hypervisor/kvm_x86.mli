(** KVM x86: the Type 2 baseline (paper sections II–IV).

    Root mode imposes no structure on CPU privilege, so Linux runs in
    root mode unmodified and KVM maps onto x86 as naturally as Xen does.
    Every VM transition pays the fixed hardware VMCS state transfer —
    cheaper than KVM ARM's software full switch, dearer than Xen ARM's
    bare trap. EOIs trap (no vAPIC on the paper's Xeon). *)

type tuning = {
  dispatch : int;  (** Run-loop exit-reason dispatch. *)
  apic_mmio_emulate : int;  (** In-kernel APIC register emulation. *)
  icr_emulate : int;  (** Trapped ICR (IPI) write emulation. *)
  irq_inject : int;  (** Host IRQ → virtual interrupt injection. *)
  process_switch : int;  (** Linux switch between QEMU processes. *)
  kick_dispatch : int;  (** ioeventfd signal on a virtqueue kick. *)
  vcpu_resume : int;  (** Waking a blocked VCPU thread. *)
  vhost_per_packet : int;
}

type t

val create : ?tuning:tuning -> Armvirt_arch.Machine.t -> t
(** Raises [Invalid_argument] for a non-x86 machine or < 8 PCPUs. *)

val machine : t -> Armvirt_arch.Machine.t

val world : t -> pcpu:int -> Armvirt_arch.Vmx_state.t
(** The root/non-root state machine of one PCPU, driven alongside every
    path below. *)

val hypercall : t -> unit
val virtual_irq_completion : t -> unit
val vm_switch : t -> unit
val io_latency_out : t -> Armvirt_engine.Cycles.t

val io_profile : t -> Io_profile.t

val to_hypervisor : t -> Hypervisor.t
