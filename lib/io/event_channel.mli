(** Xen event channels: the asynchronous notification fabric between
    domains.

    In the paper's Xen I/O path every DomU↔Dom0 interaction crosses an
    event channel: the guest's kick becomes an [EVTCHNOP_send] hypercall,
    Xen marks the port pending and (if the target domain is descheduled)
    must arrange a VM switch to run it — the chain section IV uses to
    explain why Xen's I/O latency dwarfs its hypercall cost. This module
    is the port state machine; the hypervisor models drive and price the
    chain. *)

type domid = int
type port = int

type t
(** The event channel table of one machine. *)

val create : unit -> t

val alloc : t -> from_dom:domid -> to_dom:domid -> port
(** Allocates an interdomain channel (e.g. netfront→netback). *)

val send : t -> port -> unit
(** Raises the pending bit. Raises [Invalid_argument] for a free port.
    Idempotent while pending (events coalesce, like hardware edges). *)

val pending : t -> port -> bool

val consume : t -> port -> bool
(** The target domain's upcall handler clears and handles the event.
    Returns whether the port was pending (i.e. whether there was an
    event to handle). *)

val peer : t -> port -> domid * domid
(** [(from_dom, to_dom)]. *)

val pending_for : t -> domid -> port list
(** Pending ports targeting a domain, ascending. *)
