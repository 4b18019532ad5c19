(** Architectural operations of x86 (VMX-style) hardware virtualization.

    The key contrast with {!Arm_ops} (section II of the paper): the
    root/non-root transition transfers "a substantial portion of the CPU
    register state to the VMCS in memory", performed by hardware in the
    context of the trap. So the exit and entry costs are fixed-function
    and identical for both hypervisors, while software has no choice over
    what gets switched. All operations must run inside a simulation
    process. *)

type t

val create : Machine.t -> t
(** Interns every operation's label on the machine ({!Machine.op}).
    Raises [Invalid_argument] if the machine's cost model is not x86. *)

val hw : t -> Cost_model.x86
val vapic_enabled : t -> bool

val vmcall_issue : t -> unit
(** Guest executes VMCALL. *)

val vmexit : t -> unit
(** Hardware VMCS save + host-state load; non-root → root. *)

val vmentry : t -> unit
(** Root → non-root; VMCS guest-state load. *)

val eoi_emul : t -> unit
(** The emulated EOI handler alone, without the exit and entry that
    {!eoi} brackets it with on pre-vAPIC hardware. *)

val eoi : t -> unit
(** Guest signals end-of-interrupt. Without vAPIC this traps: vmexit +
    software emulation + vmentry (Table II: ~1.5k cycles). With vAPIC it
    completes in hardware like ARM. *)

val virq_guest_dispatch : t -> unit
val ipi_wire_latency : t -> Armvirt_engine.Cycles.t

val tlb_shootdown : t -> cpus:int -> unit
(** Remote TLB invalidation across [cpus] CPUs via IPIs — the cost that
    made zero-copy uneconomical for Xen x86 (section V). *)

val barrier_cost : t -> Armvirt_engine.Cycles.t
