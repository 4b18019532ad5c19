(** ESR_EL2 syndrome decoding: why a trap landed in EL2.

    Every exit the paper's microbenchmarks provoke arrives with an
    exception syndrome; the hypervisor's first act is to decode its
    exception class. The model covers the classes the measured paths
    generate, with their architectural EC encodings (ARM ARM D17.2.37). *)

type exception_class =
  | Wfi_wfe  (** EC 0x01 — the guest idled. *)
  | Hvc64  (** EC 0x16 — a hypercall. *)
  | Smc64  (** EC 0x17 — firmware call, also trapped. *)
  | Sysreg_trap  (** EC 0x18 — MSR/MRS of a trapped system register. *)
  | Inst_abort_lower  (** EC 0x20 — stage-2 instruction fault. *)
  | Data_abort_lower  (** EC 0x24 — stage-2 data fault (MMIO or fill). *)
  | Irq
      (** Not an ESR class: physical interrupts vector separately, but
          exit dispatchers treat them as one more reason. *)

val ec : exception_class -> int
(** The architectural 6-bit EC encoding ([Irq] maps to the
    conventional pseudo-value 0x3f used by exit-reason tables). *)

val of_ec : int -> exception_class option

val marker_reason : exception_class -> Armvirt_obs.Marker.reason
(** The typed {!Armvirt_obs.Marker} exit reason of a class; its
    [Marker.reason_to_string] mnemonic (["hvc"], ["dabt"], ["irq"], ...)
    keys the [armvirt stat] rows. [test_esr] checks the map covers
    [Marker.all_reasons] one to one, in order. *)

val all : exception_class list
