(** Architectural operations of the ARM virtualization extensions.

    Each function executes one hardware-level step of section II's
    description of ARM CPU virtualization — consuming the simulated cycles
    the cost model assigns and recording the event — so hypervisor models
    can be read as the literal transition sequences from the paper.
    All operations must run inside a simulation process. *)

type t

val create : Machine.t -> t
(** Interns every operation's label on the machine ({!Machine.op}).
    Raises [Invalid_argument] if the machine's cost model is not ARM. *)

val hw : t -> Cost_model.arm
val vhe_enabled : t -> bool

(** {1 Mode transitions} *)

val hvc_issue : t -> unit
(** Guest executes HVC (hypercall instruction). *)

val trap_to_el2 : t -> unit
(** Hardware exception entry into EL2 (HVC, trapped instruction, stage-2
    abort or physical IRQ — all physical interrupts are taken to EL2 when
    running a VM). *)

val eret : t -> unit
(** Exception return out of EL2. *)

(** {1 Context switching} *)

val save_classes : t -> Reg_class.t list -> unit
(** Spends each class's save cost under {!save_label}. *)

val restore_classes : t -> Reg_class.t list -> unit
(** Spends each class's restore cost under {!restore_label}. *)

val save_label : Reg_class.t -> string
(** ["arm.save." ^ Reg_class.to_string cls]. *)

val restore_label : Reg_class.t -> string
(** ["arm.restore." ^ Reg_class.to_string cls]. *)

val stage2_disable : t -> unit
(** Turn off traps + Stage-2 translation so the host owns EL1 (split-mode
    KVM, switching to the host). Free under VHE: the host lives in EL2
    and the toggle disappears. *)

val stage2_enable : t -> unit

(** {1 Interrupt virtualization} *)

val mmio_decode : t -> unit
(** Decode the syndrome of a trapped MMIO access. *)

val vgic_slot_scan : t -> unit
(** Find a free list register before injecting. *)

val vgic_lr_write : t -> unit
(** Inject one virtual interrupt. *)

val virq_complete : t -> unit
(** Guest completes a virtual interrupt via the hardware virtual CPU
    interface — no trap (Table II: 71 cycles). *)

val virq_guest_dispatch : t -> unit

val ipi_wire_latency : t -> Armvirt_engine.Cycles.t
(** Propagation delay of a physical SGI between PCPUs (no CPU time). *)

val barrier_cost : t -> Armvirt_engine.Cycles.t
(** Timestamp barrier cost, for {!Armvirt_stats.Cycle_counter}. *)
