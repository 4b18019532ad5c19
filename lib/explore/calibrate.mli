(** Calibration search: recover cost-model constants by minimizing (or
    maximizing) an objective over a space — typically one of the
    error-vs-paper objectives, e.g. perturb [vgic.save] and ask the
    search to find the value that reproduces Table II's hypercall cost.

    The algorithm is coordinate descent over the axis level grids with
    seeded random restarts: deterministic for a fixed (seed, space,
    objective), memoized so no point is simulated twice, and level
    scans fan out through {!Armvirt_core.Runner.map} so [--jobs]
    changes wall-clock time but never the answer. *)

type result = {
  best : Space.point;
  best_value : float;
  evaluations : int;  (** Distinct points simulated (memo misses). *)
  sweeps : int;  (** Coordinate sweeps performed across all restarts. *)
  restart_bests : (Space.point * float) list;
}

val check_points : Space.t -> Space.point list
(** Points to pass through {!Config.apply_point} before a search, so a
    level it could visit is refused up front: the one-at-a-time design,
    which holds every level, and the point at every int axis's largest
    level, where the fleet VCPU budget (the one rule over two knobs) is
    tightest. *)

val search :
  ?restarts:int ->
  ?max_sweeps:int ->
  ?seed:int ->
  ?jobs:int ->
  ?start:Space.point ->
  base:Config.t ->
  objective:Objective.t ->
  Space.t ->
  result
(** [restarts] defaults to 3 (the first start is [?start] if given, else
    every axis at its first level; later starts are drawn from
    {!Armvirt_engine.Rng} seeded with [seed], default 42).
    [max_sweeps] (default 8) bounds the sweeps of each restart; a
    restart also stops as soon as a full sweep improves nothing.
    Raises [Invalid_argument] on non-positive [restarts]/[max_sweeps]. *)
