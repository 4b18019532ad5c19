(** The GIC distributor: routing and prioritisation of physical
    interrupts across CPUs.

    Both hypervisor models emulate a distributor for their guests (Xen in
    EL2, KVM in the host kernel — the locational difference behind the
    Interrupt Controller Trap results in Table II), and the machine
    itself has a physical one. The model covers the architectural state
    the paper's benchmarks exercise: enabling, the pending/active life
    cycle and SGI generation. *)

type t

type irq_state = Inactive | Pending | Active | Active_pending

val create : num_cpus:int -> t
(** Raises [Invalid_argument] if [num_cpus] is not in 1–8 (GICv2
    limit, and the m400 has 8 cores). *)

val enable : t -> Irq.t -> unit

val send_sgi : t -> Irq.t -> from:int -> targets:int list -> unit
(** Software-generated interrupt to each target CPU. *)

val state : t -> Irq.t -> cpu:int -> irq_state

val acknowledge : t -> cpu:int -> Irq.t option
(** CPU reads IAR: highest pending becomes active. *)

val end_of_interrupt : t -> Irq.t -> cpu:int -> unit
(** Deactivates. Completing an interrupt that is not active raises
    [Invalid_argument] — guests that do this are buggy and we want the
    simulation to say so loudly. *)
