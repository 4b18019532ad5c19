(** A 10 GbE NIC: DMA engine plus interrupt line.

    The Mellanox ConnectX-3 of the paper's testbed, reduced to what the
    measured software paths exercise: on receive, the NIC DMAs the frame
    into a driver-posted buffer and raises its IRQ; on transmit, the
    driver posts a descriptor and the NIC serializes onto the wire.
    Where the DMA lands is the crux of the zero-copy discussion in
    section V — KVM's vhost can post guest buffers directly, Xen's Dom0
    can only post its own. *)

type t

val create :
  machine:Armvirt_arch.Machine.t ->
  dma_cost:int ->
  irq_raise:(Packet.t -> unit) ->
  t
(** [dma_cost] is the per-packet DMA setup/completion cost in cycles;
    [irq_raise] models the interrupt line and runs (in-process) when a
    received frame has been DMA'd. *)

val attach : t -> Link.t -> remote:(Packet.t -> unit) -> unit
(** Connects the transmit side to a wire; [remote] is the receiver at the
    far end (e.g. the client machine's RX handler). *)

val receive : t -> Packet.t -> unit
(** A frame arrives from the wire (typically passed as [Link.send]'s
    [deliver]). DMA + IRQ. Must run inside a simulation process. *)

val transmit : t -> Packet.t -> unit
(** Driver hands the NIC a descriptor: DMA read, then onto the wire.
    Raises [Failure] if no link is attached. *)

val rx_count : t -> int
val tx_count : t -> int
