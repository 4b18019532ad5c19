(** Tracing session glue: connects the {!Armvirt_obs} primitives to the
    engine, machines and runner.

    Every traced machine reports through one {!Armvirt_arch.Machine.sink}
    built by {!machine_sink}: [spend] calls become complete spans on the
    machine's ["cpu"] track, categorised by the category each op carries
    ({!Armvirt_obs.Span.of_label} of its label, computed once per op),
    and [count] calls become instants on the same track. The session,
    the [stat --crosscheck] runs and [armvirt timeline] all use it.

    A session is process-global ({!enable} … {!disable}); within it, the
    runner wraps each simulation cell in {!capture}, which gives the
    cell a private tracer and metric registry on its executing domain
    (via [Domain.DLS]) and, while the cell runs, a domain-local
    {!Armvirt_arch.Machine.set_create_hook} that attaches both to every
    machine the cell builds, with an engine observer
    ({!Armvirt_engine.Sim.set_observer}) recording process spawns,
    blocked intervals, resource contention and mailbox depths on
    per-process tracks. {!record_cells} then merges finished cells back
    {e in input order}, so exported traces are byte-identical at any
    [--jobs] level. *)

val machine_sink :
  ?metrics:Armvirt_obs.Metrics.t ->
  track:string ->
  Armvirt_obs.Tracer.t ->
  Armvirt_arch.Machine.sink
(** The sink that records a machine into a tracer: a spend of [c] cycles
    completing at [now] becomes a complete span on [track] from [now - c]
    lasting [c], and a count an instant at the machine's clock. With
    [metrics], every spend also adds its cycles to
    [spend_cycles_total{category}]. *)

val pp_timeline : Format.formatter -> Armvirt_obs.Span.event list -> unit
(** One line per complete span, in the given order: completion time
    ([ts + dur], comma-grouped), step cost, label. Instants and values
    are skipped. *)

type cell = {
  label : string;  (** ["<context>#<map>.<index>"], from the runner. *)
  events : Armvirt_obs.Span.event list;
  dropped : int;
  metrics : Armvirt_obs.Metrics.t;
}

val enable : ?capacity:int -> context:string -> unit -> unit
(** Starts a session: clears previously collected cells and metrics,
    names the session [context] (used in cell labels) and bounds each
    cell's event ring at [capacity] (default 2{^18}). Call before any
    {!Runner.map}. *)

val disable : unit -> unit

val active : unit -> bool

val context : unit -> string

val next_map_seq : unit -> int
(** Sequence number for the next {!Runner.map} call in this session. *)

val capture : label:string -> (unit -> 'a) -> 'a * cell option
(** [capture ~label f] runs [f] with a fresh collector scoped to the
    calling domain and returns its result plus the finished cell. While
    [f] runs, every machine built on this domain is attached to the
    collector; machines built outside it, or on another domain, are not.
    [None] when no session is active, or when nested inside another
    capture on this domain (the work is then attributed to the enclosing
    cell). *)

val record_cells : cell option array -> unit
(** Appends captured cells to the session — callers pass the array in
    cell input order — and merges their metrics into the session
    registry. *)

val cells : unit -> cell list
(** All recorded cells, in recorded order. *)

val processes : unit -> Armvirt_obs.Export.process list
(** The recorded cells as exporter input: [pid] = record index. *)

val metrics : unit -> Armvirt_obs.Metrics.t
(** The session-wide merged registry (includes per-cell metrics plus
    memo counters). *)

val note_memo_hit : unit -> unit
val note_memo_miss : unit -> unit
(** Called by {!Runner.Memo} so cache behaviour lands in {!metrics} as
    [runner_memo_hits_total] / [runner_memo_misses_total]. *)
