(** Span recorder: complete spans, point events and sampled values on
    named tracks, kept in a ring of integers.

    A track is one timeline row — a simulated process, CPU or device.
    Track and event names are interned once per tracer ({!track},
    {!name}); an event is then three ints in flat arrays: its start
    time, its duration or value, and one word packing its kind,
    category, track id and name id. Recording an event with interned ids
    hashes and allocates nothing once the ring has grown. Events land in
    recording order; exporters ({!Export}) re-sort by start time.
    Machines reach a tracer through one sink each (see
    [Armvirt_core.Observe.machine_sink]).

    The ring grows by doubling up to an optional cap. At the cap it
    overwrites the oldest event and counts the loss in {!dropped}, so a
    trace that outgrows its budget degrades into "most recent N events"
    rather than unbounded memory. The loss is never silent: exports
    carry the count and the CLI names every cell that dropped events on
    stderr. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds retained events; omitted means unbounded. Raises
    [Invalid_argument] if [capacity < 1]. *)

(** {1 Interning} *)

val track : t -> string -> int
(** The id of a track label in this tracer, assigned on first use. *)

val name : t -> string -> int
(** The same, for an event name. *)

(** {1 Recording}

    [track] and [name] are ids from this tracer's {!track} and {!name};
    any other int raises [Invalid_argument]. *)

val complete :
  t -> track:int -> cat:Span.category -> name:int -> ts:int -> dur:int ->
  unit
(** Records a finished span: started at [ts], lasted [dur] cycles.
    Raises [Invalid_argument] on a negative duration. *)

val instant : t -> track:int -> cat:Span.category -> name:int -> ts:int -> unit

val value :
  t -> track:int -> cat:Span.category -> name:int -> ts:int -> value:int ->
  unit
(** Records a sampled value (queue depth, counter level) at [ts]. *)

(** {1 Reading}

    Event [i] is the [i]th retained event in recording order, oldest
    first, for [0 <= i < length t]; other indices raise
    [Invalid_argument]. *)

val length : t -> int
(** Events retained. *)

val dropped : t -> int
(** Events lost to the capacity cap, oldest first. *)

type kind = Complete | Instant | Value

val kind : t -> int -> kind
val ts : t -> int -> int

val arg : t -> int -> int
(** A [Complete] event's duration, a [Value]'s value, 0 for an
    [Instant]. *)

val cat : t -> int -> Span.category
val track_of : t -> int -> int
val name_of : t -> int -> int

val tracks : t -> int
(** Tracks interned so far; their ids are [0 .. tracks t - 1]. *)

val names : t -> int
(** Names interned so far, the same. *)

val track_label : t -> int -> string
val name_label : t -> int -> string

val events : t -> Span.event list
(** The retained events decoded into records, oldest first — for
    tests, timelines and other small traces. *)
