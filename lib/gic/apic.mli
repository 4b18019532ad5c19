(** A local APIC model for the x86 comparison platform.

    The x86 hypervisor models send virtual IPIs through it: a vector
    becomes requested ([fire]) and the receiving VCPU acknowledges it.
    End-of-interrupt cost, with or without vAPIC, lives in the cost
    model (Table II's Virtual IRQ Completion and the [vapic]
    experiment), not here. *)

type t

val create : unit -> t

val fire : t -> vector:int -> unit
(** A vector (32–255) becomes requested. Raises [Invalid_argument]
    outside that range (0–31 are exceptions, not external vectors). *)

val acknowledge : t -> int option
(** Highest requested vector moves from IRR to ISR (in-service). *)

val in_service : t -> int list
(** ISR contents, descending (nesting order). *)
