(** Growable-array ring buffer with an optional retention cap.

    The recording substrate for {!Tracer}: O(1) amortized {!push}, O(1)
    {!length}, chronological {!to_list}. Uncapped rings grow by
    doubling; capped rings overwrite the oldest element once full and
    count the overwrites in {!dropped}, so a trace that outgrows its
    budget degrades into "most recent N events" rather than unbounded
    memory. The loss is never silent: exports carry the count and the
    CLI's [trace], [stat], [--trace] and [--stat] name every cell that
    dropped events on stderr. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] is the maximum number of retained elements; omitted means
    unbounded. Raises [Invalid_argument] if [capacity < 1]. *)

val push : 'a t -> 'a -> unit
(** Appends. At the capacity cap, the oldest element is overwritten and
    {!dropped} is incremented. *)

val length : 'a t -> int
(** Elements currently retained. O(1). *)

val dropped : 'a t -> int
(** Elements overwritten because the ring was at capacity. *)

val to_list : 'a t -> 'a list
(** Oldest first (chronological for a tracer pushing in time order). *)
