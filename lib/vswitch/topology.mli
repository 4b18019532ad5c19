(** Multi-host cluster topologies: switches composed over uplinks.

    One {!Switch} per simulated host, VMs attached round-robin across
    hosts, hosts joined by full-duplex {!Armvirt_net.Link} pairs:
    directly for a two-host [Pair], through a VM-less spine switch for
    a [Star]. All hosts share one simulation world and machine (the
    paper's testbed machines are identical), so cross-host costs come
    from the wires, not from distinct machine models. Topologies are
    trees — the switch has no spanning-tree protocol. *)

type spec = Single | Pair | Star of int  (** [Star n]: [n] leaf hosts. *)

val spec_of_string : string -> spec
(** ["single"], ["pair"], ["star"] (= 4 leaves) or ["star:<n>"].
    Raises [Invalid_argument] otherwise. *)

val spec_to_string : spec -> string

type t

val max_vms : int
(** 256: the most VMs {!build} attaches. *)

val build :
  ?queue_capacity:int ->
  ?uplink_gbps:float ->
  vms:int ->
  Armvirt_hypervisor.Hypervisor.t ->
  spec ->
  t
(** Builds the switches, uplinks (default 10 GbE) and [vms] VM ports on
    the hypervisor's machine. VM [i] lives on host [i mod hosts] with
    MAC [i] and an initially-ignoring delivery handler (see
    {!set_handler}). Raises [Invalid_argument] on a non-positive VM
    count or uplink rate, or more than {!max_vms} VMs. *)

val hosts : t -> int

val switch : t -> int -> Switch.t
(** The host's switch (for attaching extra ports, e.g. a load
    generator's client port). *)

val spine : t -> Switch.t option
val same_host : t -> int -> int -> bool

val set_handler :
  t ->
  vm:int ->
  (src:int -> dst:int -> Armvirt_net.Packet.t -> unit) ->
  unit
(** Replace VM [vm]'s frame delivery handler. *)

val send : t -> src:int -> dst:int -> Armvirt_net.Packet.t -> unit
(** VM-to-VM transmit through the source VM's switch (and the uplinks,
    when the destination lives on another host). Must run inside a
    simulation process. *)

val send_to_mac : t -> src:int -> dst_mac:int -> Armvirt_net.Packet.t -> unit
(** Like {!send} but addressing a raw MAC — e.g. a load generator's
    client port attached outside the VM set. *)

val max_uplink_utilization : t -> float
val total_dropped : t -> int
