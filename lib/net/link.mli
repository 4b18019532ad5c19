(** A point-to-point Ethernet link.

    The paper's testbed interconnect: "All servers are connected via
    10 GbE ... experiments involving networking between two nodes can be
    considered isolated and unaffected by other traffic" (section III).
    A link has fixed propagation latency plus a serialization time per
    byte; deliveries preserve order (it is a wire, not a network). *)

type t

val create :
  Armvirt_engine.Sim.t ->
  propagation:Armvirt_engine.Cycles.t ->
  cycles_per_byte:float ->
  t

val cycles_per_byte_of_gbps : freq_ghz:float -> float -> float
(** The named Gbps → cycles/byte converter: [freq_ghz *. 8.0 /. gbps].
    Every wire-rate constant should enter cycle arithmetic through
    here (the U2 units lint treats it as the sanctioned dimension
    change). Raises [Invalid_argument] on a non-positive rate. *)

val ten_gbe :
  Armvirt_engine.Sim.t -> freq_ghz:float -> t
(** A 10 GbE link as seen from a CPU at [freq_ghz]: ~2 μs one-way
    propagation (cut-through switch + PHY) and 10 Gb/s serialization. *)

val send : t -> Packet.t -> deliver:(Packet.t -> unit) -> unit
(** Queues the packet at the link's current cycle; [deliver] runs as a
    timed callback ({!Armvirt_engine.Sim.at}) after serialization +
    propagation, in FIFO order with earlier sends. A callback may not
    block: a receiver that charges time or waits wraps its work in
    {!Armvirt_engine.Sim.fork}, which starts it at the delivery cycle.
    May be called from a process or a callback. *)

val transfer_time : t -> bytes:int -> Armvirt_engine.Cycles.t
(** Serialization + propagation for a [bytes]-sized payload, rounded
    once over the whole payload rather than per packet — the
    byte-accurate figure bulk streaming (migration pre-copy) must use so
    large page batches don't accumulate per-packet rounding drift.
    Pure: no wire state is touched. *)

val send_bulk : t -> bytes:int -> Armvirt_engine.Cycles.t
(** Streams a bulk payload: claims the wire in FIFO order behind any
    earlier sends, blocks the calling process until the payload has
    fully arrived at the far end, and returns the observed latency
    (queueing + serialization + propagation). Must run inside a
    simulation process. *)

val delivered : t -> int

val in_flight : t -> int
(** Frames sent and not yet delivered. *)

val busy_cycles : t -> int
(** Cumulative serialization cycles the wire has committed (including
    serialization scheduled into the near future behind the FIFO
    point). *)

val utilization : t -> float
(** Busy cycles over elapsed simulated time. Elapsed is
    [max (Sim.now) wire_free_at] — the horizon the wire is committed
    to — so the figure stays in [0, 1] even while frames are still
    queued to serialize; 0 before any time has passed. *)
