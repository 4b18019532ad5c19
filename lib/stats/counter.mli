(** Named event counters and cycle accumulators.

    A [set] plays the role of the paper's per-experiment bookkeeping: how
    many traps, IPIs, VM switches and data copies a run performed, and how
    many cycles each category consumed. Hypervisor models increment
    counters as a side effect of executing architectural operations, and
    the reports in [Armvirt_core] read them back.

    A name is interned once per set into a dense {!id}; values live in an
    int array indexed by id, so {!add_id} is an array add with no hashing.
    The models intern their labels when they are built and add through
    ids; the by-name {!add} and {!incr} intern on every call and suit
    tests, examples and one-off counts. *)

type set

type id = private int
(** A counter slot of one set: dense from 0, in intern order, so a
    caller can index its own per-counter array by it. Ids never move:
    {!reset} keeps them valid. Using an id with a set that did not
    intern it is meaningless (it addresses whatever counter holds that
    slot there). *)

val create_set : unit -> set

val intern : set -> string -> id
(** The id of [name] in [set], allocating it on first use. Idempotent:
    interning a name again returns the same id. Interning alone does not
    make a counter appear in {!names}. *)

val add_id : set -> id -> int -> unit
val incr_id : set -> id -> unit

val incr : set -> string -> unit
val add : set -> string -> int -> unit

val get : set -> string -> int
(** 0 for a counter never touched. *)

val value : set -> id -> int option
(** [None] for a counter not updated since creation or the last
    {!reset}. *)

val names : set -> string list
(** Counters updated at least once since creation or the last {!reset}
    (an add of 0 counts), sorted. A name that was only interned is not
    listed. *)

val reset : set -> unit
(** Zeroes every counter and empties {!names}; interned ids stay valid. *)
