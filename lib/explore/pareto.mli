(** Pareto frontier over multi-objective results. *)

val dominates :
  dirs:Objective.direction list -> float array -> float array -> bool
(** [dominates ~dirs a b]: [a] is no worse than [b] on every objective
    (respecting each direction) and strictly better on at least one.
    Equal rows dominate in neither direction. *)

val frontier : dirs:Objective.direction list -> float array list -> int list
(** Indices (into the input list, ascending) of the non-dominated rows.
    A row with an undefined objective (NaN or infinite) is never on the
    frontier and dominates no other row. Exact duplicate rows keep only
    the first occurrence. Raises [Invalid_argument] on an empty [dirs]
    or a row arity mismatch. *)
