(** Network packets carrying layer-by-layer timestamps.

    Reproduces the paper's Table V methodology: "we analyzed the behavior
    of TCP_RR in further detail by using tcpdump to capture timestamps on
    incoming and outgoing packets at the data link layer ... this allowed
    us to analyze the latency between operations happening in the VM and
    the host." Every interesting point in the simulated stack calls
    {!stamp}; the analysis in [Armvirt_core.Trace] differences the
    stamps.

    A packet keeps its stamps in two small arrays (labels and times) in
    first-stamp order and finds a label by scanning them with
    [String.equal]. Call sites pass string literals, so a lookup usually
    ends on a pointer-equal hit; no label is hashed. *)

type t

val default_framing : int
(** 66 bytes of Ethernet + IP + TCP framing — the overhead every
    untagged frame carries. *)

val vlan_tag_bytes : int
(** The 4 bytes an 802.1Q tag adds on a switch trunk port. *)

val create : ?framing:int -> ?payload:int -> id:int -> unit -> t
(** [payload] is the application bytes (default 1, as in TCP_RR);
    [framing] the header overhead {!wire_bytes} adds on top (default
    {!default_framing}, preserving the pre-parameterized 66-byte
    behavior). Raises [Invalid_argument] on a negative payload or
    framing. *)

val id : t -> int
val payload_bytes : t -> int

val framing_bytes : t -> int
(** The packet's current header overhead in bytes. *)

val set_framing : t -> int -> unit
(** Re-frame the packet in place — a switch trunk port adds
    {!vlan_tag_bytes} on ingress to the uplink and strips it again at
    the far side. Raises [Invalid_argument] on a negative framing. *)

val wire_bytes : t -> int
(** Payload plus the packet's framing overhead. *)

val stamp : t -> string -> unit
(** Records the current simulated time under a label. Must run inside a
    simulation process. Re-stamping a label overwrites (retransmission
    semantics). *)

val stamp_at : t -> string -> Armvirt_engine.Cycles.t -> unit

val timestamp : t -> string -> Armvirt_engine.Cycles.t option

val interval : t -> string -> string -> Armvirt_engine.Cycles.t option
(** [interval t a b] is the cycles from stamp [a] to stamp [b], or [None]
    if either is missing or [b] precedes [a]. *)

val stamps : t -> (string * Armvirt_engine.Cycles.t) list
(** In chronological order; stamps at the same time keep the order in
    which their labels were first stamped. *)
