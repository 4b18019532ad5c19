(** The GIC virtual CPU interface: per-VCPU list registers.

    This is the hardware that lets an ARM guest acknowledge and complete
    virtual interrupts without trapping (Table II's 71-cycle Virtual IRQ
    Completion, vs ~1.5k cycles of EOI traps on pre-vAPIC x86). The
    hypervisor writes pending virtual interrupts into list registers from
    EL2; the guest drains them through the virtual CPU interface.

    Reading this state back out of the GIC on every VM exit is the
    3,250-cycle "VGIC Regs" save cost of Table III — by far the paper's
    largest single context-switch component. *)

type t
(** The virtual interface state of one VCPU. *)

type lr_state = Lr_pending | Lr_active

exception Overflow
(** No free list register. Real hypervisors park the interrupt in a
    software pending list and enable the maintenance interrupt; the
    models do the same via {!overflow_queue}. *)

val create : ?num_lrs:int -> unit -> t
(** [num_lrs] defaults to 4, the GIC-400 configuration. Raises
    [Invalid_argument] if [num_lrs < 1]. *)

val free_lrs : t -> int

val inject : t -> Irq.t -> unit
(** Hypervisor writes a list register. If the interrupt is already
    resident it stays (hardware merges); raises {!Overflow} when all list
    registers are busy with other interrupts. *)

val inject_or_queue : t -> Irq.t -> unit
(** {!inject}, falling back to the software overflow queue. *)

val overflow_queue : t -> Irq.t list
val maintenance_needed : t -> bool
(** True when queued interrupts are waiting for a free list register. *)

val drain_overflow : t -> unit
(** Hypervisor refills list registers from the overflow queue (done on
    maintenance interrupt or VM entry). *)

val acknowledge : t -> Irq.t option
(** Guest reads IAR: highest-priority pending virtual interrupt becomes
    active. No trap. *)

val complete : t -> Irq.t -> unit
(** Guest priority-drop + deactivate. No trap. Raises [Invalid_argument]
    if the interrupt is not active. *)

val pending : t -> Irq.t list
val active : t -> Irq.t list
val resident : t -> int
(** Number of occupied list registers. *)
