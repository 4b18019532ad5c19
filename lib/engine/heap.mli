(** Binary min-heap keyed by [(time, sequence)] pairs.

    The secondary sequence key makes event ordering deterministic: two
    events scheduled for the same cycle pop in scheduling order, so every
    simulation run is exactly reproducible.

    Internally the heap is three [int] arrays, the two keys and a slot
    index, and the sifts move only those. Each payload is written once,
    into a slot table, when it is pushed, and its slot is cleared when
    it is popped, so a popped payload is collectable at once. Free slots
    are an int free list, the most recently freed reused first. A push
    or pop makes one write-barriered store, not one per level of the
    sift, and {!push} allocates nothing but the doubling of a full
    heap. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:int -> seq:int -> 'a -> unit

val min_time : 'a t -> int
(** Time key of the minimum element, without allocating.
    @raise Invalid_argument on an empty heap. *)

val min_seq : 'a t -> int
(** Sequence key of the minimum element, without allocating.
    @raise Invalid_argument on an empty heap. *)

val min_value : 'a t -> 'a
(** Payload of the minimum element, left in place.
    @raise Invalid_argument on an empty heap. *)

val pop_min : 'a t -> 'a
(** Removes the minimum element and returns its payload, without
    allocating — the simulation engine's hot path ({!min_time} first for
    the clock, then [pop_min] for the action).
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> (int * int * 'a) option
(** Removes and returns the minimum element, or [None] if empty.
    Allocating convenience wrapper over {!min_time}/{!pop_min}. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
