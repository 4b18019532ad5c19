(** A simulated server machine: PCPUs, a cost model, and accounting.

    Mirrors one CloudLab node from the paper's experimental setup
    (section III): 8 physical cores, one hypervisor, cycle counters. All
    hypervisor and workload models execute as simulation processes on a
    machine and price their work through {!spend}, which both advances
    simulated time and attributes the cycles to a named counter so the
    reports can decompose where time went.

    Labels are interned when a model is built: {!op} and {!marker} turn
    a label into a slot of this machine's counter set, and {!spend} and
    {!count} then update that slot by index, hashing and building no
    string. An op or marker carries its machine, so it can only ever
    charge the machine it was interned on. The counters are exact at any
    run length, and [armvirt stat] reads its counts from them
    ({!markers}, {!op_cycles}). Each op declares its trace category and
    stat lane where it is interned; nothing is inferred from a label. *)

type t

val create :
  Armvirt_engine.Sim.t -> cost:Cost_model.t -> num_cpus:int -> t
(** Raises [Invalid_argument] if [num_cpus < 1]. *)

val sim : t -> Armvirt_engine.Sim.t
val cost : t -> Cost_model.t
val counters : t -> Armvirt_stats.Counter.set
val num_cpus : t -> int

(** {1 Interned labels} *)

type op
(** A priced step (["arm.save.GP Regs"], ["kvm_arm.host_dispatch"]):
    a free-form label, spent through {!spend}. *)

type marker
(** A counted {!Armvirt_obs.Marker.t} (exits, entries, operation,
    switch and wire counters), counted through {!count}. *)

val op :
  t -> ?lane:Armvirt_obs.Accounting.lane -> Armvirt_obs.Span.category ->
  string -> op
(** [op t ?lane cat label] interns [label] in [t]'s counters as an op of
    trace category [cat] and stat lane [lane] (default [Hypervisor]; an
    op the guest itself executes declares [Guest]). Interning the same
    label again returns an op on the same counter; it must declare the
    same category and lane, and {!op_cycles} reports the first. Call it
    when the model is built, not per operation. Raises
    [Invalid_argument] if [label] is already a marker on [t]. *)

val marker : t -> Armvirt_obs.Marker.t -> marker
(** As {!op}, for a marker: its label ({!Armvirt_obs.Marker.label}) is
    built here, once. Raises [Invalid_argument] if that label is already
    an op on [t]. *)

val spend : op -> int -> unit
(** [spend op cycles] advances the calling process by [cycles] and adds
    them to [op]'s counter. Must run inside a simulation process. Raises
    [Invalid_argument] on negative [cycles]. *)

val count : marker -> unit
(** Increment [marker]'s counter without consuming time. *)

val markers : t -> (Armvirt_obs.Marker.t * int) list
(** Every marker counted at least once, with its count, in intern
    order; a marker interned twice is listed once. *)

val op_cycles : t -> Armvirt_obs.Accounting.spent list
(** Every op spent at least once (a spend of 0 counts), with its label,
    declared category and lane, and total cycles, sorted by label. *)

(** {1 Instrumentation} *)

type sink = {
  spend :
    id:Armvirt_stats.Counter.id -> label:string ->
    cat:Armvirt_obs.Span.category -> cycles:int ->
    now:Armvirt_engine.Cycles.t -> unit;
      (** Every {!spend}: the op's counter id in {!counters}, its label
          and declared category, its cycles and the simulated time {e
          after} the step. *)
  count :
    id:Armvirt_stats.Counter.id -> marker:Armvirt_obs.Marker.t ->
    label:string -> cat:Armvirt_obs.Span.category ->
    now:Armvirt_engine.Cycles.t -> unit;
      (** Every {!count}: the marker's counter id, the typed marker,
          its label and {!Armvirt_obs.Marker.category} and the machine's
          clock, so it is safe outside a simulation process. *)
}
(** Where a machine reports its priced steps and counted markers, in
    the order they happen. The library builds every sink in
    [Armvirt_core.Observe]: spends become complete spans and counts
    instants of a tracer, and counts feed exit-latency pairing. *)

val attach : t -> sink option -> unit
(** Installs (or, with [None], clears) the machine's one sink. Idle, a
    {!spend} or {!count} pays one [option] match. *)

val set_create_hook : (t -> unit) option -> unit
(** Installs (or clears) a hook invoked on every {!create} {e on the
    calling domain} with the new machine. Lets a tracing session attach
    to machines that experiments construct internally; machines built
    on other domains never see it. *)

val freq_ghz : t -> float

val elapsed_us : t -> Armvirt_engine.Cycles.t -> float
(** Convert cycles to microseconds at this machine's clock frequency. *)
