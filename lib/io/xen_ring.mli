(** The Xen PV shared ring (netfront/netback, blkfront/blkback).

    Unlike a virtqueue, slots do not carry guest addresses the backend
    could dereference — Dom0 has no access to DomU memory. They carry
    {e grant references} that Dom0 must map or grant-copy through
    {!Armvirt_mem.Grant_table} before touching a byte: the structural
    reason "Xen does not support zero-copy I/O" (section V).

    Notifications are suppressed while the consumer is live, in both
    directions, mirroring the ring's [req_event]/[rsp_event] protocol. *)

type request = {
  gref : Armvirt_mem.Grant_table.gref;
  len : int;
  id : int;
}

type response = { id : int; status : int }

type t

val create : ?size:int -> unit -> t
(** [size] defaults to 256 slots; must be a power of two. *)

exception Ring_full

val frontend_push : t -> request -> unit
(** DomU posts a request. Raises {!Ring_full} when [size] requests are
    outstanding. *)

val frontend_notify_needed : t -> bool
(** Whether the push must be followed by an event-channel send. *)

val backend_pop : t -> request option

val backend_respond : t -> response -> unit
(** Raises [Invalid_argument] for an id the backend does not own. *)

val backend_notify_needed : t -> bool
val frontend_reap : t -> response option

val outstanding : t -> int
