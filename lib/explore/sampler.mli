(** Deterministic samplers over a {!Space.t}.

    All three are pure functions of (space, seed): the full point list
    is materialized serially before any parallel evaluation, so results
    are reproducible at any [--jobs] level. *)

type t =
  | Grid  (** Full cartesian product, first axis slowest. *)
  | Lhs of int
      (** Latin hypercube with the given sample count: each axis is cut
          into n strata, each stratum used exactly once, stratum order
          shuffled per axis via {!Armvirt_engine.Rng}. Float ranges
          interpolate continuously; discrete axes pick the stratum's
          level. *)
  | Oat
      (** One-at-a-time sensitivity design: the base point (first level
          of every axis) first, then one point per non-base level of
          each axis, deviating in that axis only. *)

val of_string : string -> t
(** ["grid"], ["lhs:N"] or ["oat"]. Raises [Invalid_argument] otherwise. *)

val to_string : t -> string

val points : t -> seed:int -> Space.t -> Space.point list
(** [seed] only affects [Lhs]. *)

val max_points : int
(** 100 000: the most points one sweep may evaluate. *)

val check : t -> Space.t -> (unit, string) result
(** {!Space.check}, then [Error] if the sampler would produce more than
    {!max_points} points (the full product for [Grid], [n] for [Lhs n]).
    Counts arithmetically, so a huge space is rejected at once. *)
