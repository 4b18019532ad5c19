(** Cluster workloads over the {!Armvirt_vswitch} fabric.

    The paper's netperf numbers are one VM talking to one bare-metal
    client over one wire. These workloads extend the same calibrated
    per-event costs (guest kernel paths from
    {!Armvirt_guest.Kernel_costs}, hypervisor port costs from
    {!Armvirt_vswitch.Port_profile}) to VM-to-VM and cross-host
    traffic: an iperf-style pairwise throughput matrix, a client → LB →
    backend service chain timed hop-by-hop with
    {!Armvirt_net.Packet.stamp}, and an open-loop load generator
    driving a memcached-style backend pool to saturation. All three are
    deterministic: same hypervisor, same parameters, same bytes out. *)

(** {1 Pairwise throughput matrix} *)

type pair_result = {
  src : int;
  dst : int;
  cross_host : bool;
  gbps : float;  (** Goodput, payload bits over the pair's run time. *)
}

type matrix_result = {
  config : string;
  topology : string;
  vms : int;
  pairs : pair_result list;  (** Ordered pairs, row-major, src <> dst. *)
  uplink_utilization : float;  (** Max over uplinks, whole run. *)
  dropped : int;  (** Egress-queue drops (0 when the window fits). *)
}

val matrix_window : int
(** The chunks {!run_matrix} keeps in flight by default: 4. *)

val run_matrix :
  ?chunks:int ->
  ?window:int ->
  ?vms:int ->
  ?spec:Armvirt_vswitch.Topology.spec ->
  ?queue_capacity:int ->
  ?uplink_gbps:float ->
  Armvirt_hypervisor.Hypervisor.t ->
  matrix_result
(** Each ordered VM pair in turn streams [chunks] (default 16) 64 KB
    GRO aggregates with [window] (default 4) in flight. Same-host
    pairs bound on the hypervisor's port costs — zero-copy vhost far
    above Xen's per-byte Dom0 copies — and cross-host pairs add the
    10 GbE uplink. [queue_capacity] defaults to twice the window. The
    sender waits for each chunk's delivery, so a queue that dropped a
    measured chunk would block the run: a capacity below [window] is
    rejected, and [dropped] counts only the unmeasured MAC-learning
    frames a full queue lost. Raises [Invalid_argument] on non-positive
    parameters, [vms < 2] or [queue_capacity < window]. *)

val matrix_mean : cross:bool -> matrix_result -> float
(** Mean Gbps over the same-host ([cross:false]) or cross-host pairs;
    0 when the topology has no such pair. *)

(** {1 Service chain} *)

type chain_result = {
  chain_config : string;
  chain_topology : string;
  requests : int;
  hops : (string * float) list;
      (** Mean microseconds per hop, in chain order: client->lb, lb,
          lb->backend, backend, backend->lb, lb-return, lb->client. *)
  mean_total_us : float;
  p99_total_us : float;
  backend_cross_host : bool;
}

val run_chain :
  ?requests:int ->
  ?payload:int ->
  ?spec:Armvirt_vswitch.Topology.spec ->
  ?uplink_gbps:float ->
  Armvirt_hypervisor.Hypervisor.t ->
  chain_result
(** A closed-loop client (VM 0) sends [requests] (default 400)
    [payload]-byte (default 256) requests through an LB VM on its own
    host to a backend VM — on the second host when the topology has
    one. Every hop stamps the packet, mirroring the paper's tcpdump
    methodology at cluster scale. *)

(** {1 Open-loop load generation} *)

type load_point = {
  offered : float;  (** Fraction of aggregate native pool capacity. *)
  offered_rps : float;  (** The same, in simulated requests/second. *)
  completed : int;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  throughput_rps : float;
}

type loadgen_result = {
  lg_config : string;
  lg_topology : string;
  backends : int;
  lg_requests : int;
  points : load_point list;  (** In sweep order. *)
}

val default_loads : float list
(** [0.2; 0.4; 0.6; 0.8; 0.95; 1.1] — the top point oversubscribes
    even a native pool, so every hypervisor's curve shows the
    hockey-stick knee. *)

val min_load : float

val max_load : float
(** [1e-6] and [1e6]: the offered loads {!run_loadgen} takes. An
    arrival gap is a unit gap scaled by [1 / load] and truncated to
    whole cycles, so a load far below [min_load] overflows every gap to
    none at all, and a non-finite load has no gap. *)

val run_loadgen :
  ?seed:int ->
  ?requests:int ->
  ?payload:int ->
  ?vms:int ->
  ?spec:Armvirt_vswitch.Topology.spec ->
  ?loads:float list ->
  ?uplink_gbps:float ->
  Armvirt_hypervisor.Hypervisor.t ->
  loadgen_result
(** Poisson arrivals at each offered load drive a [vms]-backend
    (default 16) memcached-style pool round-robin through the switch
    fabric; each backend is one serving VCPU with a FIFO socket queue.
    The arrival skeleton is drawn once from [seed] and rescaled per
    point, so with fixed per-request service every request's latency —
    and therefore p99 — is monotone non-decreasing in offered load.
    At 16 backends the default sweep tops out above one million
    simulated requests/second offered. Raises [Invalid_argument] on
    non-positive parameters and on a load outside
    [min_load .. max_load]. *)
