(** The GIC distributor: routing and prioritisation of physical
    interrupts across CPUs.

    Both hypervisor models emulate a distributor for their guests (Xen in
    EL2, KVM in the host kernel — the locational difference behind the
    Interrupt Controller Trap results in Table II), and the machine
    itself has a physical one. The model covers the architectural state
    the paper's benchmarks exercise: enabling, pending/active life cycle,
    SGI generation, per-IRQ CPU targeting. *)

type t

type irq_state = Inactive | Pending | Active | Active_pending

val create : num_cpus:int -> t
(** Raises [Invalid_argument] if [num_cpus] is not in 1–8 (GICv2
    limit, and the m400 has 8 cores). *)

val num_cpus : t -> int

val enable : t -> Irq.t -> unit
val disable : t -> Irq.t -> unit

val set_priority : t -> Irq.t -> int -> unit
(** 0 is highest. Raises [Invalid_argument] outside 0–255. *)

val set_target : t -> Irq.t -> cpu:int -> unit
(** SPI routing. SGIs/PPIs are banked per CPU; raises
    [Invalid_argument] if applied to them. *)

val raise_spi : t -> Irq.t -> unit
(** A peripheral asserts an SPI: pending on its target CPU. *)

val raise_ppi : t -> Irq.t -> cpu:int -> unit

val send_sgi : t -> Irq.t -> from:int -> targets:int list -> unit
(** Software-generated interrupt to each target CPU. *)

val state : t -> Irq.t -> cpu:int -> irq_state

val highest_pending : t -> cpu:int -> Irq.t option
(** Highest-priority enabled pending interrupt for [cpu]; ties break to
    the lowest IRQ id, as in the GIC architecture. *)

val acknowledge : t -> cpu:int -> Irq.t option
(** CPU reads IAR: highest pending becomes active. *)

val end_of_interrupt : t -> Irq.t -> cpu:int -> unit
(** Deactivates. Completing an interrupt that is not active raises
    [Invalid_argument] — guests that do this are buggy and we want the
    simulation to say so loudly. *)

val pending_count : t -> cpu:int -> int
