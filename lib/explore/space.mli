(** Typed description of a design space: named axes over cost-model
    constants, hypervisor tuning knobs and platform choices.

    A space is pure data — sampling it yields {!point}s, and
    {!Config.apply_point} turns a point into a fresh configuration
    functionally, so concurrently evaluated points never share state. *)

type value = Int of int | Float of float | Bool of bool | Choice of string

type spec =
  | Int_range of { lo : int; hi : int; step : int }
      (** [lo, lo+step, ..] up to and including [hi] when it lands. *)
  | Float_range of { lo : float; hi : float; step : float }
  | Levels of value list  (** Explicit levels, in order. *)

type axis = { name : string; spec : spec }

type t = axis list

type point = (string * value) list
(** One sampled assignment, in axis order. *)

val levels : axis -> value list
(** The discrete levels a grid or one-at-a-time sampler enumerates. *)

val size : t -> int
(** Number of full-grid points (product of level counts). *)

val max_levels : int
(** 10 000: the most levels one axis may have. *)

val level_count : axis -> int
(** [List.length (levels a)], computed without building the levels;
    any count past {!max_levels} is reported as [max_levels + 1]. *)

val check : t -> (unit, string) result
(** [Error] naming the first axis with more than {!max_levels} levels.
    Check a parsed space before sampling it: the samplers materialize
    every level. *)

val value_to_string : value -> string

val point_to_string : point -> string
(** ["vgic.save=2500 lr_count=4"] — stable, for logs and memo keys. *)

val of_string : string -> t
(** Parse the CLI syntax: comma-separated [name=spec] bindings where
    spec is [lo:hi:step] (ints, or floats if any bound has a point) or
    [v|v|...] explicit levels (ints, floats, [true]/[false], anything
    else a choice label). Example:
    ["vgic.save=2000:4375:625,lr_count=2|4,hyp=kvm|xen"].
    Raises [Invalid_argument] on malformed input. *)

val to_string : t -> string
(** Inverse of {!of_string} (canonical form). *)
