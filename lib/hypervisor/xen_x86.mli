(** Xen x86: the Type 1 baseline (paper sections II–V).

    On x86 both hypervisor types use the same root/non-root transition,
    so Xen's hypercall costs the same as KVM's — ARM's Type 1 advantage
    has no x86 analogue. Xen's I/O model is unchanged from ARM: Dom0
    (paravirtualized on x86), event channels, grant copies. Zero copy was
    attempted and abandoned on x86 because revoking grants requires
    IPI-based TLB shootdowns on every CPU (section V, refs 17–18).

    The Apache data point is faithfully absent: the paper could not run
    Apache on Xen x86 at all ("it caused a kernel panic in Dom0"). *)

type tuning = {
  dispatch : int;
  apic_mmio_emulate : int;
  icr_emulate : int;
  irq_inject : int;
  eoi_emul : int;  (** Xen's EOI emulation (differs from KVM's). *)
  sched_switch : int;
      (** Credit scheduler + VMCS switch between HVM domains. *)
  pv_switch : int;
      (** Switching the root-mode context to/from PV Dom0 — lighter than
          an HVM VMCS switch. *)
  evtchn_send : int;
  dom0_upcall : int;
  dom0_signal_path : int;
  grant_copy_fixed : int;
  netback_per_packet : int;
}

type t

val create : ?tuning:tuning -> Armvirt_arch.Machine.t -> t
(** Raises [Invalid_argument] for a non-x86 machine or < 8 PCPUs. *)

val machine : t -> Armvirt_arch.Machine.t

val world : t -> pcpu:int -> Armvirt_arch.Vmx_state.t
(** The root/non-root state machine of one PCPU. Dom0 is paravirtualized
    — it lives in root mode and never enters non-root operation, so only
    DomU's PCPUs ever hold a current VMCS. *)

val hypercall : t -> unit
val io_latency_in : t -> Armvirt_engine.Cycles.t

val zero_copy_break_even_bytes : t -> cpus:int -> int
(** Bytes below which grant-copying beats zero-copy mapping on x86,
    given the TLB shootdown across [cpus] CPUs — the arithmetic behind
    abandoning zero copy on Xen x86. *)

val to_hypervisor : t -> Hypervisor.t
