(** Trace exporters: Chrome trace-event JSON, CSV, and a flame-style
    cycle-attribution summary.

    All three are pure functions of their input and emit
    deterministically ordered output (events sorted by start time, spans
    before their nested children, track/category ties broken
    lexicographically), so exports from identical simulations are
    byte-identical regardless of runner parallelism. *)

type process = {
  pid : int;  (** Chrome pid; one per simulation cell. *)
  name : string;  (** Cell label, shown as the Chrome process name. *)
  events : Span.event list;
  dropped : int;  (** Events lost to the ring-buffer cap. *)
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
    [pid,process,tid,track,ts,dur,cat,name,value]. *)

val escape_csv : string -> string
(** One RFC 4180 CSV field, the escaper every CSV emitter in [lib/]
    shares: a field containing a comma, quote, LF or CR is quoted, with
    embedded quotes doubled. CR matters: a field with an embedded
    ["\r\n"] written unquoted splits the row on Windows-style
    readers. *)

val summary : Format.formatter -> process list -> unit
(** Cycles per {!Span.category} across all processes, each broken down
    by span name, descending — the Table III/Table V style ledger for
    an arbitrary trace. *)
