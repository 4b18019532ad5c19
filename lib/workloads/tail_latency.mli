(** Open-loop tail latency: what the added per-request latency does to
    percentiles under load.

    The paper's Netperf TCP_RR is closed-loop — one request in flight —
    so it measures the mean path. Real services see open-loop arrivals,
    where the virtualization surcharge both lengthens service times
    (burning VCPU0 capacity) and adds fixed delivery latency; queueing
    amplifies the difference into the tail. This experiment drives
    Poisson arrivals at a fraction of native capacity through a
    simulated single-VCPU server and reports the latency distribution —
    the "latency added to I/O" (section IV) made operational. *)

type result = {
  config : string;
  offered_load : float;  (** Fraction of native capacity. *)
  completed : int;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  utilization : float;  (** Server busy fraction during the run. *)
}

val run :
  ?seed:int ->
  ?requests:int ->
  Armvirt_hypervisor.Hypervisor.t ->
  load:float ->
  result
(** [load] is the arrival rate as a fraction of the {e native} service
    capacity, so the same 0.7 means the same request stream on every
    hypervisor — the virtualized servers run closer to saturation.
    Raises [Invalid_argument] unless [0 < load < 1] and
    [requests > 0]. Deterministic for a fixed [seed] (default 42);
    [requests] defaults to 2000. *)
