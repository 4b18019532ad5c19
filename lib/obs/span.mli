(** The span taxonomy: what kind of work a traced interval represents.

    Mirrors the decomposition axes of the paper's analysis — traps into
    the hypervisor (Table I's transition costs), full world switches,
    interrupt virtualization, stage-2 memory management, the I/O request
    path (Table V) and scheduling. Every
    {!event} carries a {!category} so exporters can attribute cycles per
    axis without re-parsing label strings. *)

type category =
  | Migrate
      (** Live migration: dirty logging, pre-copy rounds, blackout.
          Matched first — migration labels ("migrate.wp_fault",
          "migrate.copy") would otherwise scatter into the Stage2 and Io
          lanes. *)
  | Trap  (** Traps/exits into hypervisor emulation (hypercall, MMIO). *)
  | Vmexit  (** Full world switches: save/restore, VM entry/exit. *)
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

val of_label : string -> category
(** Classifies a {!Armvirt_arch.Machine.spend} label
    (["kvm_arm.vcpu_resume"], ["netperf.host_rx_path"], ...) by ordered
    substring rules; unmatched labels map to {!Other}. *)

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
