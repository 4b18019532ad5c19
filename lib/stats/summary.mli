(** Order statistics over a sample of measurements.

    The paper reports microbenchmarks as representative cycle counts taken
    after carefully controlling variability (section IV). We keep whole
    samples and expose the estimators needed to reproduce that reporting:
    medians for tables, means and deviations for sanity checks. *)

type t
(** An immutable summary of a non-empty sample of floats. *)

val of_list : float list -> t
(** Raises [Invalid_argument] on an empty sample. *)

val of_cycles : Armvirt_engine.Cycles.t list -> t

val sorted : t -> float list
(** The sample in ascending {!Float.compare} order, nan first. *)

val count : t -> int
val mean : t -> float
val median : t -> float
val stddev : t -> float
(** Sample standard deviation (n-1 denominator); 0 for singleton samples. *)

val min : t -> float
val max : t -> float

val percentile : t -> float -> float
(** [percentile s p] for [p] in [0..100], by linear interpolation between
    closest ranks. Raises [Invalid_argument] for [p] outside the range. *)

val coefficient_of_variation : t -> float
(** stddev / mean; the paper's variability-control criterion maps to
    requiring this to be small for microbenchmark samples. *)

val median_cycles : t -> Armvirt_engine.Cycles.t
(** Median rounded to a whole cycle count, for table rendering. *)
