(** A live-migration scenario: the guest, its write traffic, the wire,
    and the operator's service-level objective.

    The guest runs an open-loop request/response workload (netperf
    TCP_RR-flavoured): requests arrive at a fixed rate whether or not
    the guest keeps up, and each request dirties a skewed working set —
    a hot set written constantly plus a cold majority touched rarely,
    the access pattern that makes pre-copy converge. *)

type t = {
  pages : int;  (** Guest memory size in pages. *)
  page_kb : int;  (** Page granule in KiB (4 unless sweeping page size). *)
  vcpus : int;  (** VCPUs to pause/resume at blackout. *)
  hot_pages : int;  (** Working-set pages [0, hot_pages) written often. *)
  hot_fraction : float;  (** Probability a write lands in the hot set. *)
  writes_per_txn : int;  (** Pages dirtied per request. *)
  txn_rate_hz : float;  (** Open-loop request arrival rate. *)
  service_cycles : int;  (** Guest CPU per request, before fault costs. *)
  max_rounds : int;
      (** Pre-copy round cap: when the dirty rate outruns the wire, the
          engine stops iterating here and forces stop-and-copy. *)
  downtime_target_us : float;
      (** Convergence test: stop-and-copy begins once the projected
          blackout fits under this SLO. *)
  bandwidth_gbps : float;  (** Migration link bandwidth. *)
  batch_pages : int;  (** Pages per transport batch (one kick each). *)
  warmup_us : float;
      (** Pre-migration window measured for the baseline latency. *)
  tail_us : float;  (** Post-resume window, so the blackout backlog drains. *)
  seed : int;  (** Root of the deterministic write-address stream. *)
}

val default : t
(** 16 MiB guest (4096 x 4 KiB), 512-page hot set at 90% affinity,
    20k requests/s dirtying 8 pages each, 10 Gb/s link, 300 us downtime
    SLO — a scenario that converges in a handful of rounds on every
    hypervisor model. *)

val page_bytes : t -> int

val max_pages : int
(** 1 048 576 pages (4 GiB at 4 KiB): the largest guest a plan admits. *)

val max_page_kb : int
(** 1024 KiB: the largest page granule. *)

val max_vcpus : int
(** 4096 VCPUs. *)

val max_txn_rate_hz : float
(** 1 000 000 requests/s. *)

val min_bandwidth_gbps : float
(** 0.1 Gb/s: the slowest migration link. *)

val validate : t -> unit
(** Raises [Invalid_argument] on a nonsensical plan: a non-finite float
    field, a count or rate out of range, or a size past one of the
    limits above. Each limit keeps a run on an otherwise default plan
    within seconds. *)

val pp : Format.formatter -> t -> unit
