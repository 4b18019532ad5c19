(** Span recorder: complete spans, point events and sampled values on
    named tracks, buffered in a {!Ring}.

    A track is one timeline row — a simulated process, CPU or device.
    Events land in a single ring in recording order; exporters
    ({!Export}) re-sort by start time. Machines reach a tracer through
    one sink each (see [Armvirt_core.Observe.machine_sink]). *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds retained events (see {!Ring.create}); omitted
    means unbounded. *)

val complete :
  t -> track:string -> cat:Span.category -> name:string -> ts:int ->
  dur:int -> unit
(** Records a finished span: started at [ts], lasted [dur] cycles.
    Raises [Invalid_argument] on a negative duration. *)

val instant :
  t -> track:string -> cat:Span.category -> name:string -> ts:int -> unit

val value :
  t -> track:string -> cat:Span.category -> name:string -> ts:int ->
  value:int -> unit
(** Records a sampled value (queue depth, counter level) at [ts]. *)

val events : t -> Span.event list
(** In recording order (chronological by completion). *)

val dropped : t -> int
(** Events lost to the capacity cap, oldest first; the CLI warns on
    stderr for every recorded cell where this is non-zero. *)
