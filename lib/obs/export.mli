(** Trace exporters: Chrome trace-event JSON, CSV, and a flame-style
    cycle-attribution summary.

    All three are pure functions of their input and emit
    deterministically ordered output (events sorted by start time, spans
    before their nested children, track/category ties broken
    lexicographically), so exports from identical simulations are
    byte-identical regardless of runner parallelism.

    They read each cell's integer ring in place: an index array sorted
    by (start, longer first, recording order), track ids mapped to
    Chrome tids through an array, each distinct name escaped once, and
    every line written with [Buffer.add_*] and a decimal writer. The
    buffer goes to the formatter every 64 KB, so no export holds a whole
    cell's text. *)

type process = {
  pid : int;  (** Chrome pid; one per simulation cell. *)
  name : string;  (** Cell label, shown as the Chrome process name. *)
  trace : Tracer.t;
      (** The cell's ring; its {!Tracer.dropped} is the count of events
          lost to the cap. *)
}

val chrome : Format.formatter -> process list -> unit
(** Chrome trace-event JSON (the [traceEvents] array format), loadable
    in Perfetto ({:https://ui.perfetto.dev}) or [chrome://tracing]. One
    Chrome process per simulation cell, one thread per track; complete
    spans use ["X"] events, instants ["i"], sampled values ["C"]
    counters. Timestamps are simulated cycles exported 1:1 as
    microseconds. *)

val csv : Format.formatter -> process list -> unit
(** One row per event:
    [pid,process,tid,track,ts,dur,cat,name,value], written as it is
    ordered rather than built as a {!Table.t}; fields are quoted by
    {!Table.csv_field}. *)

val summary : Format.formatter -> process list -> unit
(** Cycles per {!Span.category} across all processes, each broken down
    by span name, descending — the Table III/Table V style ledger for
    an arbitrary trace. *)
