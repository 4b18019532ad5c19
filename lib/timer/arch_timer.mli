(** The ARM generic virtual timer, per VCPU.

    Section II: "ARM provides a virtual timer, which can be configured by
    the VM without trapping to the hypervisor. However, when the virtual
    timer fires, it raises a physical interrupt, which must be handled by
    the hypervisor and translated into a virtual interrupt." The model
    exposes both halves: guests program deadlines trap-free; expiry is
    delivered to a hypervisor-supplied handler which is responsible for
    the virtual injection (and pays for it). *)

type t

val create : on_expiry:(unit -> unit) -> t
(** [on_expiry] runs in a fresh simulation process when an armed deadline
    is reached; it models the physical PPI 27 landing at the hypervisor. *)

val arm_timer : t -> deadline:Armvirt_engine.Cycles.t -> unit
(** Guest sets CNTV_CVAL. Re-arming replaces any previous deadline. A
    deadline in the past fires immediately (at the current cycle). Must
    run inside a simulation process. *)

val is_armed : t -> bool

val expirations : t -> int
