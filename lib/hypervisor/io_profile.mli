(** Per-event virtualization overheads, the currency of the application
    analysis.

    Section V of the paper explains every Figure 4 result in terms of a
    small set of per-event costs: what a virtqueue/ring kick costs the
    guest, what delivering a virtual interrupt costs and adds in latency,
    what the backend burns per packet, and whether the data path copies.
    Each hypervisor model exports its profile; the application workload
    models consume it. The native baseline is {!native} — all zeros. *)

type t = {
  notify_latency : int;
      (** Added latency, guest kick → backend sees it: the simulated
          I/O Latency Out microbenchmark exactly, on every model. *)
  kick_guest_cpu : int;
      (** Guest-VCPU cycles consumed per kick (exit + re-entry). *)
  irq_delivery_latency : int;
      (** Added latency, backend signal → guest handler. Xen ARM's is
          its simulated I/O Latency In exactly (15 638 cycles); the
          other models' differ by design. The KVM profiles price a
          running VCPU that the signal kicks out of the guest, but the
          microbenchmark wakes a blocked one: KVM ARM 7865 against
          13 872, VHE 2237 against 12 408, KVM x86 3440 against 18 923.
          Xen x86's leaves out the guest's 110-cycle vIRQ dispatch
          (9940 against 10 050). *)
  irq_delivery_guest_cpu : int;
      (** Guest-VCPU cycles consumed per delivered virtual interrupt,
          beyond the native interrupt path. *)
  virq_completion : int;
      (** Per-interrupt completion cost (71 on ARM; an EOI trap on
          pre-vAPIC x86). *)
  vipi_guest_cpu : int;
      (** Added cycles per virtual IPI (sender + receiver). *)
  backend_cpu_per_packet : int;
      (** Backend (host kernel / Dom0) cycles per packet beyond the
          native driver path. *)
  rx_copy_per_byte : float;
      (** Extra copy cost on the receive path; 0 under zero-copy. *)
  tx_copy_per_byte : float;
  rx_grant_per_packet : int;
      (** Fixed grant map/copy machinery per received packet (Xen's
          "more than 3 μs" of section V). *)
  tx_grant_per_packet : int;
  guest_rx_per_packet : int;
      (** Frontend driver work inside the guest per received packet,
          beyond a native driver: virtio used-ring reaping for KVM;
          grant allocation/revocation plus ring bookkeeping for Xen. *)
  guest_tx_per_packet : int;
  irq_rate_factor : float;
      (** Virtual interrupts delivered per native interrupt the same
          workload would see. KVM's VHOST preserves NAPI coalescing
          (1.0); Xen's per-event upcall channel coalesces worse. *)
  phys_rx_extra_latency : int;
      (** Latency from wire arrival to the physical driver seeing the
          frame, beyond native. Zero for KVM (the host driver is always
          resident); for Xen the physical driver lives in Dom0, which is
          "often idling when the network packet arrives", so Xen must
          first switch from the idle domain to Dom0 — the reason Xen's
          Table V "send to recv" exceeds native's. *)
  zero_copy : bool;
      (** Whether the backend can DMA directly into guest buffers. *)
}

val native : t
(** No hypervisor: every field zero, [zero_copy = true]. *)

val total_rx_packet_cost : t -> bytes:int -> int
(** Backend + grant + copy cycles to move one received packet of [bytes]
    to the guest (excludes the guest-side interrupt costs). *)

val total_tx_packet_cost : t -> bytes:int -> int
