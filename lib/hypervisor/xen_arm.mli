(** Xen ARM: a Type 1 hypervisor resident in EL2 (paper section II).

    Xen maps naturally onto the ARM virtualization extensions: the whole
    hypervisor runs in EL2 with its own register bank, so a simple trap
    from a VM costs little more than a GP register spill — the 376-cycle
    Hypercall of Table II, an order of magnitude below split-mode KVM.

    The flip side, and the paper's central finding: Xen only implements
    scheduling, memory management, the interrupt controller and timers in
    EL2. All I/O lives in Dom0, a separate privileged VM. A guest I/O
    operation therefore traps to EL2 {e and then} crosses to Dom0 —
    physical IPI, a full VM switch away from the idle domain, an event
    channel upcall — and moves its data by grant copy because Dom0 cannot
    see guest memory. Fast transitions; slow I/O. *)

type pinning =
  | Separate  (** Dom0 and DomU on disjoint PCPUs (the paper's setup). *)
  | Shared
      (** Dom0 and the VM share PCPUs — the configuration the paper
          tried and found "similar or worse" (section IV). *)

type tuning = {
  trap_save : int;
      (** Lazy GP spill on trap into EL2 (Xen saves only what it
          clobbers, unlike KVM's structured full save). *)
  trap_restore : int;
  hypercall_dispatch : int;  (** EL2 hypercall table dispatch. *)
  gic_mmio_emulate : int;  (** Distributor emulation, directly in EL2. *)
  sgi_emulate : int;
      (** Trapped SGI write: distributor lock, target resolution, and the
          physical SGI write through the slow GIC interconnect. *)
  irq_route : int;
      (** Physical interrupt acknowledgement (IAR read / EOI through the
          GIC) + pending resolution, on the receiving PCPU. *)
  sched_pick : int;  (** Credit scheduler decision. *)
  evtchn_send : int;  (** EVTCHNOP_send hypercall handling in EL2. *)
  dom0_upcall : int;
      (** Dom0's event upcall: Linux IRQ entry, evtchn demux, waking the
          backend thread. *)
  dom0_signal_path : int;
      (** Dom0-side path from backend completion to the event-channel
          hypercall (the inbound direction's prologue). *)
  evtchn_demux : int;
      (** The guest's event-channel upcall demultiplexing chain, per
          delivered event. *)
  grant_copy_fixed : int;
      (** Fixed cost of one grant copy: establishing and tearing down the
          shared page — "more than 3 μs ... even though only a single
          byte of data needs to be copied" (section V). *)
  grant_map_zero_copy : int;
      (** Hypothetical ARM zero-copy: grant map + broadcast TLBI unmap,
          for the what-if ablation the paper raises ("whether zero copy
          ... can be implemented efficiently on ARM ... remains to be
          investigated"). *)
  netback_per_packet : int;  (** Netback work per packet in Dom0. *)
}

type t

val create :
  ?tuning:tuning -> ?pinning:pinning -> Armvirt_arch.Machine.t -> t
(** Dom0 on PCPUs 0-3, DomU on 4-7 (or overlapping under [Shared]).
    Raises [Invalid_argument] for a non-ARM machine or < 8 PCPUs. *)

val machine : t -> Armvirt_arch.Machine.t

val world : t -> pcpu:int -> Armvirt_arch.El2_state.t
(** The EL2 world state machine of one PCPU (checked alongside every
    path below). Xen's worlds are [El2_resident]: EL1 always belongs to
    some domain (the idle domain, -1, when nothing runs). *)

(** {1 Paths} — must run inside a simulation process. *)

(** {1 Microbenchmark operations (Table I)} *)

val hypercall : t -> unit
val interrupt_controller_trap : t -> unit
val virtual_irq_completion : t -> unit
val vm_switch : t -> unit
val virtual_ipi : t -> Armvirt_engine.Cycles.t
val io_latency_out : t -> Armvirt_engine.Cycles.t
val io_latency_in : t -> Armvirt_engine.Cycles.t

val io_profile : t -> Io_profile.t

val io_profile_zero_copy : t -> Io_profile.t
(** The what-if profile: grant mapping with ARM broadcast TLB
    invalidation instead of copying. Used by the [zerocopy] ablation. *)

val migrate_profile : t -> Migrate_profile.t

val to_hypervisor : t -> Hypervisor.t
