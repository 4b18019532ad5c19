(** Per-hypervisor cost of moving a frame across a host switch port.

    Section V of the paper explains the VM networking results with two
    contrasting data paths: KVM's in-kernel vhost backend hands whole
    buffers to the guest ring without copying, while Xen's Dom0 netback
    performs a grant operation and a copy for every frame. A port
    profile distills the hypervisor's {!Armvirt_hypervisor.Io_profile}
    into what the switch charges on each side of a forward: ingress
    (guest transmit into the switch — the backend's TX path) and egress
    (switch into the receiving guest — the backend's RX path), plus the
    notification and interrupt-delivery latencies bracketing them. *)

type t = {
  name : string;  (** The hypervisor model the profile was derived from. *)
  fabric_per_packet : int;
      (** Switch-fabric lookup/forward cycles per frame, hypervisor
          independent; keeps even a native (all-zeros profile) port from
          forwarding in zero time. *)
  ingress_per_packet : int;
      (** Backend + grant cycles per frame a guest transmits into the
          switch. *)
  ingress_per_byte : float;  (** TX-side copy; 0 under zero-copy vhost. *)
  egress_per_packet : int;
      (** Backend + grant cycles per frame delivered into a guest. *)
  egress_per_byte : float;  (** RX-side copy (Xen's Dom0 copy). *)
  notify_latency : int;  (** Guest kick -> backend sees the frame. *)
  irq_delivery_latency : int;  (** Backend -> guest RX handler. *)
  zero_copy : bool;
}

val of_hypervisor : Armvirt_hypervisor.Hypervisor.t -> t

val ingress_cost : t -> bytes:int -> int
(** Host cycles to accept a [bytes]-sized frame from a guest, including
    the fabric forward. Raises [Invalid_argument] on a negative size. *)

val egress_cost : t -> bytes:int -> int
(** Host cycles to push a [bytes]-sized frame into the receiving guest
    (the per-port egress service time bounding port throughput). *)
