(** One complete design-space sweep: sample, evaluate in parallel,
    rank.

    The point list is materialized serially by the sampler, evaluation
    fans out through {!Armvirt_core.Runner.map} (input-order merge), and
    the emitters print from the merged list — so the CSV and markdown
    are byte-identical at any [--jobs] level. *)

type t = {
  space : Space.t;
  sampler : Sampler.t;
  seed : int;
  objectives : Objective.t list;
  points : Space.point list;
  values : float array list;  (** Row per point, column per objective. *)
  pareto : int list;  (** Indices of the non-dominated points. *)
  sensitivity : Sensitivity.ranking list option;
      (** Present for {!Sampler.Oat} runs, ranked on the first
          objective. *)
}

val run :
  ?jobs:int ->
  ?seed:int ->
  base:Config.t ->
  sampler:Sampler.t ->
  objectives:Objective.t list ->
  Space.t ->
  t
(** [seed] defaults to 42. Raises [Invalid_argument] on an empty
    objective list or a sampler yielding no points. *)

val pp_csv : Format.formatter -> t -> unit
(** One row per point: axis columns, one column per objective
    ([name_unit]), and a [pareto] 0/1 flag. *)

val pp_markdown : Format.formatter -> t -> unit
(** Full report: parameters, the point table, the Pareto frontier and
    (for one-at-a-time runs) the sensitivity ranking. *)
