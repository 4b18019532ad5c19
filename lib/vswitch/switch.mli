(** A host-side virtual switch with tap-style ports.

    The missing piece between the paper's single-wire netperf testbed
    and cluster traffic: one switch per simulated host, one port per
    VM. A forward charges the hypervisor's port costs on both sides
    ({!Port_profile}: vhost zero-copy vs Xen Dom0 copy), optionally
    learns source MACs, bounds every port's egress queue (overflow is
    dropped and accounted, like a tap device's txqueue), and composes
    into multi-host topologies over {!Armvirt_net.Link} uplinks. Trunk
    (uplink) frames carry a {!Armvirt_net.Packet.vlan_tag_bytes} 802.1Q
    tag while on the wire.

    Every forwarded frame bumps {!Armvirt_arch.Machine.count} markers
    under the [vswitch.<switch>/p<port>/{rx,tx,drop}], [vswitch.<switch>/flood]
    and [wire.<switch>-u<n>/{tx,rx}] labels, so a traced run surfaces
    per-port and per-wire counters in [armvirt stat] as operation rows —
    runs with no switch are byte-identical to before. Loop-free
    (tree) topologies only: there is no spanning-tree protocol. *)

type t

val create :
  ?queue_capacity:int ->
  ?learning:bool ->
  name:string ->
  Armvirt_arch.Machine.t ->
  Port_profile.t ->
  t
(** [queue_capacity] (default 64) bounds each port's egress queue —
    frames accepted but not yet delivered into the guest; overflow
    drops. [learning] (default true) enables MAC learning with
    flooding of unknown destinations; when off, forwarding is static
    (local MAC match, else the uplink). Raises [Invalid_argument] on a
    non-positive capacity. *)

val attach :
  t ->
  mac:int ->
  deliver:(src:int -> dst:int -> Armvirt_net.Packet.t -> unit) ->
  int
(** Attach a VM: returns the new port id (dense, in attach order).
    [deliver] runs as a timed callback ({!Armvirt_engine.Sim.at}) when a
    frame reaches the guest, with the frame's source and destination
    MACs — ports are promiscuous taps (floods reach every port), so the
    guest stack filters on [dst] like a real NIC driver. A callback may
    not block: a guest that charges time or waits for a resource wraps
    its work in {!Armvirt_engine.Sim.fork}, which starts it at the
    delivery cycle. Raises [Invalid_argument] on a duplicate MAC. *)

val set_handler :
  t -> port:int -> (src:int -> dst:int -> Armvirt_net.Packet.t -> unit) -> unit

val transmit : t -> port:int -> dst:int -> Armvirt_net.Packet.t -> unit
(** A guest on [port] transmits a frame to MAC [dst]: charges the
    ingress cost in the calling process (the guest's kick and the
    backend TX path), then forwards — to a local port's egress queue,
    over an uplink, or flooded when the destination is unknown. Must
    run inside a simulation process. *)

val connect :
  t -> t -> a_to_b:Armvirt_net.Link.t -> b_to_a:Armvirt_net.Link.t -> unit
(** Full-duplex uplink between two switches, one wire per direction.
    May be called repeatedly to build trees (e.g. leaves to a spine). *)

(** {1 Stats} *)

type port_stats = {
  stat_port : int;
  stat_mac : int;
  rx : int;  (** Frames accepted from the guest. *)
  tx : int;  (** Frames delivered into the guest. *)
  drops : int;  (** Egress-queue overflows. *)
  queue_depth : int;  (** Current egress occupancy. *)
}

val port_stats : t -> port_stats list
(** In port-id order. *)

val dropped : t -> int
val flooded : t -> int

type dest = Local of int | Via_uplink of int

val mac_table : t -> (int * dest) list
(** Learned MACs, ascending. Empty when [learning] is off. *)

val uplink_links : t -> Armvirt_net.Link.t list
(** Outbound wires in connect order (for {!Armvirt_net.Link.utilization}). *)
