(** Parallel, memoizing experiment runner.

    Every paper artifact ([table2], [fig4], [vhe], …) is a set of fully
    independent simulation cells: each cell builds its own
    {!Armvirt_engine.Sim.t} world (see {!Platform}), so cells share no
    mutable state and can run on separate OCaml 5 domains. {!map} fans a
    list of such cells out across a [Domain.spawn] pool and merges results
    back {e in input order}, so experiment output is byte-identical
    regardless of the parallelism level — determinism is preserved by
    construction, not by luck.

    {!Memo} is the companion cache: identical cells recur across
    artifacts (e.g. the KVM-ARM microbenchmark column appears in both
    Table II and the VHE comparison), and a table keyed by
    [(platform, hyp, tuning, iterations)] computes each such cell once
    per process instead of once per table. *)

module Key : sig
  (** Identity of one simulation cell, used both as memo key and as the
      deterministic RNG seed source for stochastic cells. *)

  type t = private {
    platform : string;  (** e.g. ["arm"], ["arm-vhe"], ["x86"]. *)
    hyp : string;  (** e.g. ["kvm"], ["xen"], ["native"]. *)
    tuning : string;
        (** Free-form discriminator for non-stock configurations (lazy
            switching, GICv3 cost model, vAPIC, pinning…); [""] = stock. *)
    iterations : int;  (** Requested iterations; [0] = the cell's default. *)
  }

  val v :
    ?platform:string ->
    ?hyp:string ->
    ?tuning:string ->
    ?iterations:int ->
    unit ->
    t
  (** All components default to the stock value ([""] / [0]). *)

  val seed : t -> int
  (** A positive seed derived (stably, FNV-1a) from the key alone. Cells
      that drive an {!Armvirt_engine.Rng} seed it from their own key, so
      a cell's stream is a function of its identity — never of which
      domain or in which order the runner happened to execute it. *)
end

val set_jobs : int -> unit
(** Sets the process-global parallelism level used when {!map} is called
    without [?jobs] (the [--jobs] CLI flag lands here). Raises
    [Invalid_argument] for values < 1. *)

val jobs : unit -> int
(** The current effective parallelism level: the last {!set_jobs} value,
    or {!default_jobs} if never set. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f cells] applies [f] to every cell, fanning the work out over
    [jobs] domains (default {!jobs} [()]), and returns the results in
    input order. With [jobs = 1] no domain is spawned and this is exactly
    [List.map]. If any [f] raises, the exception of the {e lowest-index}
    failing cell is re-raised after all domains have joined (again
    independent of scheduling). [f] must not touch shared mutable state;
    experiment cells satisfy this by building fresh simulation worlds. *)

module Memo : sig
  type 'a table
  (** A thread-safe memo table from {!Key.t} to ['a]. *)

  val create : unit -> 'a table

  val find_or_compute : 'a table -> Key.t -> (unit -> 'a) -> 'a
  (** [find_or_compute t key f] returns the cached value for [key],
      computing it with [f] on first use. [f] must be deterministic (all
      experiment cells are); under concurrent first use a duplicate
      computation may happen, but the first value stored wins and every
      caller observes that same value. *)

  val clear : 'a table -> unit
  (** Drops all entries (benchmarks clear between timed runs so later
      iterations don't measure cache hits). *)

  val hits : 'a table -> int
  val misses : 'a table -> int
  (** Cumulative lookup statistics, surviving {!clear}. *)
end
