(** Trace-driven workload replay: synthetic request traces through the
    per-event cost model.

    Where the Table IV profiles are steady-state averages, this
    generator synthesizes an explicit trace — Poisson arrivals over
    mixed request classes with Pareto-tailed response sizes — and
    replays it request by request against a hypervisor's
    {!Armvirt_hypervisor.Io_profile}, yielding the full per-request
    cost distribution instead of a single normalized bar. Deterministic
    per seed. *)

type request_class = {
  class_name : string;
  weight : float;  (** Relative arrival share. *)
  cpu_cycles : int;  (** Application work per request. *)
  rx_packets : int;
  tx_packets_mean : float;  (** Pareto-tailed per request. *)
  response_bytes_mean : float;
}

type result = {
  replayed : int;
  per_class : (string * int * float) list;
      (** [(class, requests, mean added μs)] per request class. *)
  added_cpu_pct : float;
      (** Virtualization surcharge as a share of the trace's native
          CPU demand. *)
  p99_added_us : float;  (** Tail of the per-request surcharge. *)
}

val run :
  ?seed:int ->
  ?requests:int ->
  ?mix:request_class list ->
  Armvirt_hypervisor.Hypervisor.t ->
  result
(** [requests] defaults to 2,000. Raises [Invalid_argument] on an empty
    mix or non-positive counts. *)
