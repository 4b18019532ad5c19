(** Labelled metric registry: counters, gauges and log-bucketed latency
    histograms keyed by [(name, labels)].

    Where {!Armvirt_stats.Counter} string-mangles its dimensions into one
    flat name, a registry keeps them as label pairs
    ([("platform", "arm"); ("hyp", "kvm")]), so snapshots can be grouped,
    filtered and merged per dimension. All rendered output is
    deterministically sorted by [(name, labels)] — no [Hashtbl] iteration
    order ever reaches an exporter. *)

type t

type labels = (string * string) list
(** Label pairs; order does not matter (keys are sorted internally). *)

val create : unit -> t

val incr : t -> ?labels:labels -> ?by:int -> string -> unit
(** Monotonic counter. [by] defaults to 1. *)

val set_gauge : t -> ?labels:labels -> string -> float -> unit
(** Last-write-wins point-in-time value. *)

val observe : t -> ?labels:labels -> string -> float -> unit
(** Adds an observation to a log-bucketed histogram: bucket upper bounds
    are 1, 2, 4, ... 2{^62}; observation [v] lands in the first bucket
    with bound >= [v]. Raises [Invalid_argument] for negative values. *)

(** {1 Reads} *)

val counter_value : t -> ?labels:labels -> string -> int
(** 0 for a counter never incremented. *)

val gauge_value : t -> ?labels:labels -> string -> float option

type histogram = {
  count : int;
  sum : float;
  buckets : (float * int) list;
      (** [(upper bound, count)] per non-empty bucket, ascending;
          non-cumulative. *)
}

val histogram : t -> ?labels:labels -> string -> histogram option

val names : t -> string list
(** All metric family names, sorted, deduplicated. *)

(** {1 Merging} *)

val merge_into : dst:t -> t -> unit
(** Adds the source's counters and histogram contents into [dst];
    gauges overwrite. Deterministic given deterministic inputs. *)

(** {1 Rendering — both deterministically sorted} *)

val pp_prometheus : Format.formatter -> t -> unit
(** Prometheus text exposition format: [# TYPE] per family, histograms
    with cumulative [le] buckets, [+Inf], [_sum] and [_count]. Names are
    sanitized to the Prometheus charset. *)
