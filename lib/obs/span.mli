(** The span taxonomy: what kind of work a traced interval represents.

    Mirrors the decomposition axes of the paper's analysis — traps into
    the hypervisor (Table I's transition costs), full world switches,
    interrupt virtualization, stage-2 memory management, the I/O request
    path (Table V) and scheduling. Every {!event} carries a {!category};
    each op declares its own where it is interned
    ([Armvirt_arch.Machine.op]), and a marker's follows from its
    constructor ({!Marker.category}), so no label is parsed. *)

type category =
  | Migrate  (** Live migration: dirty logging, pre-copy rounds, blackout. *)
  | Trap  (** Traps/exits into hypervisor emulation (hypercall, MMIO). *)
  | Vmexit
      (** World-switch transitions: VM exit and entry, VCPU resume,
          process switch, exception return. *)
  | Irq  (** Interrupt virtualization: vGIC, IPIs, EOI, timer ticks. *)
  | Stage2  (** Stage-2/nested paging: faults, page walks, TLB, grants. *)
  | Io  (** The paravirtual I/O path: rings, backends, copies, wires. *)
  | Sched  (** Simulator scheduling: parked/woken processes, contention. *)
  | Other

val categories : category array
(** Every category, in declaration order. *)

val category_index : category -> int
(** The position of a category in {!categories}. *)

val category_to_string : category -> string
(** Lowercase stable names: ["migrate"], ["trap"], ["vmexit"], ["irq"],
    ["stage2"], ["io"], ["sched"], ["other"]. *)

(** {1 Events} *)

type kind =
  | Complete of int  (** A span with a duration in cycles. *)
  | Instant  (** A point event (process spawn, marker). *)
  | Value of int  (** A sampled value (queue depth, gauge). *)

type event = {
  ts : int;  (** Start time, simulated cycles. *)
  track : string;  (** Timeline row: a process, CPU or device name. *)
  cat : category;
  name : string;
  kind : kind;
}

val duration : event -> int
(** The [Complete] duration, 0 for instants and values. *)
