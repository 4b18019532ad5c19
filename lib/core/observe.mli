(** Tracing session glue: connects the {!Armvirt_obs} primitives to the
    engine, machines and runner.

    A session is process-global ({!enable} … {!disable}); within it, the
    runner wraps each simulation cell in {!capture}, which gives the
    cell a private tracer and metric registry on its executing domain
    (via [Domain.DLS]). A {!Armvirt_arch.Machine.set_create_hook} hook
    attaches both to every machine the cell builds: [spend] calls become
    complete spans on the machine's ["cpu"] track, categorised by the
    category each op carries ({!Armvirt_obs.Span.of_label} of its label,
    computed once per op), and an engine observer
    ({!Armvirt_engine.Sim.set_observer}) records process spawns, blocked
    intervals, resource contention and mailbox depths on per-process
    tracks. {!record_cells} then merges finished cells back {e in input
    order}, so exported traces are byte-identical at any [--jobs]
    level. *)

type cell = {
  label : string;  (** ["<context>#<map>.<index>"], from the runner. *)
  events : Armvirt_obs.Span.event list;
  dropped : int;
  metrics : Armvirt_obs.Metrics.t;
}

val enable : ?capacity:int -> context:string -> unit -> unit
(** Starts a session: clears previously collected cells and metrics,
    names the session [context] (used in cell labels), bounds each
    cell's event ring at [capacity] (default 2{^18}) and installs the
    machine-creation hook. Call before any {!Runner.map}. *)

val disable : unit -> unit

val active : unit -> bool

val set_verbose : bool -> unit

val verbose : unit -> bool
(** Independent of tracing: [--verbose] prints runner metrics even for
    untraced runs. *)

val context : unit -> string

val next_map_seq : unit -> int
(** Sequence number for the next {!Runner.map} call in this session. *)

val capture : label:string -> (unit -> 'a) -> 'a * cell option
(** [capture ~label f] runs [f] with a fresh collector scoped to the
    calling domain and returns its result plus the finished cell. [None]
    when no session is active, or when nested inside another capture on
    this domain (the work is then attributed to the enclosing cell). *)

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
