(** Scalar objectives extracted from a {!Config.t}: microbenchmark
    medians, Netperf figures, tail percentiles, plus error-vs-paper
    objectives that turn the Table II targets into a calibration
    search criterion.

    Every [eval] builds a fresh machine for the point ({!Config.hypervisor})
    and runs a complete measurement, so objective evaluations are pure
    and safe to fan out across runner domains. *)

type direction = Min | Max

type t = {
  name : string;
  doc : string;
  unit_ : string;
  direction : direction;
  eval : Config.t -> float;
}

val all : t list
(** [hypercall], [ict], [virq-complete], [vm-switch], [io-out], [io-in]
    (median cycles); [rr-rate], [rr-us], [maerts-gbps], [stream-gbps]
    (Netperf); [tail-p99]; [lr-overhead] (uses the point's [lr_count]);
    [mig-downtime], [mig-total], [mig-resent], [mig-p99-degradation]
    (live migration under the point's [migration] plan);
    [hypercall-err] and [table2-err] (percent error vs the paper —
    these raise [Invalid_argument] for [hyp=native], which has no
    Table II column). *)

val find : string -> t
(** Raises [Invalid_argument] with the available names on a miss. *)
