(** Observation session glue: connects the {!Armvirt_obs} primitives
    to the engine, machines and runner.

    A session is process-global ({!enable} … {!disable}); within it, the
    runner wraps each simulation cell in {!capture}, which gives the
    cell a private collector on its executing domain (via
    [Domain.DLS]) and, while the cell runs, a domain-local
    {!Armvirt_arch.Machine.set_create_hook} that attaches one sink to
    every machine the cell builds. The sink feeds each counted marker
    to the machine's {!Armvirt_obs.Accounting.pairing}, and in a traced
    session also records spends as complete spans and counts as
    instants on the machine's ["cpu"] track, categorised by the
    category each op or marker carries. A traced session also records
    the engine observer's process spawns, blocked intervals, resource
    contention and mailbox depths on per-process tracks; every session
    keeps their metrics.

    When the cell finishes, {!capture} reads each machine's counters
    into exit-accounting rows and [spend_cycles_total{category}], so
    [armvirt stat] is exact at any run length and an untraced session
    records no ring events at all. {!record_cells} then merges finished
    cells back {e in input order}, so exported traces and stat reports
    are byte-identical at any [--jobs] level. *)

val machine_sink :
  ?pairing:Armvirt_obs.Accounting.pairing ->
  track:string ->
  Armvirt_obs.Tracer.t ->
  Armvirt_arch.Machine.sink
(** The sink that records a machine into a tracer: a spend of [c] cycles
    completing at [now] becomes a complete span on [track] from [now - c]
    lasting [c], and a count an instant at the machine's clock, which is
    also fed to [pairing]. The sink interns [track] once and each op's
    or marker's label the first time it sees it, keyed by the machine's
    counter id, so a later spend records three ints and allocates
    nothing; attach it to one machine only. Sessions, the [stat
    --crosscheck] runs and [armvirt timeline] all use it. *)

val pp_timeline : Format.formatter -> Armvirt_obs.Span.event list -> unit
(** One line per complete span, in the given order: completion time
    ([ts + dur], comma-grouped), step cost, label. Instants and values
    are skipped. *)

type cell = {
  label : string;  (** ["<context>#<map>.<index>"], from the runner. *)
  trace : Armvirt_obs.Tracer.t;
      (** The cell's ring of up to 2{^18} events, frozen when the cell
          finished (its machines are detached then); empty in an
          untraced session. {!Armvirt_obs.Tracer.dropped} counts the
          events it lost. *)
  metrics : Armvirt_obs.Metrics.t;
  rows : Armvirt_obs.Accounting.vm_stats list;
      (** Exit accounting of every machine the cell built, read from
          its counters when the cell finished. *)
}

val enable : trace:bool -> context:string -> unit -> unit
(** Starts a session: clears previously collected cells and metrics and
    names the session [context] (used in cell labels). With [trace],
    each cell records spans, instants and values in a ring of 2{^18}
    events for a trace export; without it, cells record none. Call
    before any {!Runner.map}. *)

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
