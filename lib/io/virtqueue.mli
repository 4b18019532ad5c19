(** A Virtio virtqueue: the guest/host shared ring used by KVM's
    paravirtual devices (Russell's Virtio protocol, the paper's [7]).

    The property that matters for the paper (section V): the backend (the
    host kernel with VHOST) has "full access to all of the machine's
    hardware resources, including VM memory", so buffers placed here are
    directly reachable by the host and the NIC can DMA into them —
    zero-copy I/O. The ring also batches: a kick is only needed when the
    backend isn't already processing, which the application models use to
    amortize exit costs on streaming workloads.

    Buffers are descriptors pointing at guest memory ({!Armvirt_mem}
    IPAs); the queue never copies data. *)

type desc = {
  addr : Armvirt_mem.Addr.ipa;  (** Guest buffer address. *)
  len : int;  (** Buffer length in bytes. *)
  id : int;  (** Guest cookie, returned through the used ring. *)
}

type t

val create : ?size:int -> unit -> t
(** [size] defaults to 256 descriptors (QEMU's default); must be a power
    of two, else raises [Invalid_argument]. *)

exception Ring_full

val add_avail : t -> desc -> unit
(** Guest posts a buffer. Raises {!Ring_full} when [size] buffers are
    outstanding (posted but not yet reaped). *)

val avail_count : t -> int

val kick_needed : t -> bool
(** True when the backend has stopped processing and must be notified
    (the trap the I/O Latency Out microbenchmark measures). False while
    the backend is live — the batching window. *)

val backend_pop : t -> desc option
(** Backend takes the next posted buffer. Marks the backend live. *)

val backend_park : t -> unit
(** Backend went to sleep; next {!add_avail} requires a kick. *)

val backend_push_used : t -> id:int -> len:int -> unit
(** Backend completes a buffer. Raises [Invalid_argument] for an id that
    is not currently owned by the backend. *)

val guest_reap_used : t -> (int * int) option
(** Guest collects a completion [(id, len)]. *)

val used_count : t -> int
val outstanding : t -> int
(** Buffers posted and not yet reaped: avail + in-backend + used. *)
