(** Paravirtual backend threads: the vhost worker (KVM) and the netback
    kthread (Xen Dom0) as first-class simulation processes.

    Section V's application analysis hinges on what these threads do per
    packet and when they sleep: a parked backend forces the guest's next
    kick to trap ({!Armvirt_io.Virtqueue.kick_needed}), a live one
    absorbs work without notifications. This module gives the life
    cycle a reusable home: a worker process with a NAPI-style batch
    budget, per-item costs from the hypervisor's
    {!Io_profile}, explicit park/wake transitions, and counters for
    everything.

    The two kinds differ exactly where the designs differ: a [Vhost]
    worker touches guest memory directly (zero copy, one thread per
    virtual interface, scales with VMs); a [Netback] worker must
    grant-copy every item and serializes all interfaces through Dom0.

    Only the structural stacks of [Armvirt_system] run these workers;
    their tests compare those stacks with the analytic models. *)

type kind = Vhost | Netback

type t

val create :
  Armvirt_arch.Machine.t ->
  profile:Io_profile.t ->
  kind:kind ->
  ?batch_budget:int ->
  (int -> unit) ->
  t
(** [create m ~profile ~kind on_item]: [on_item id] runs (in the worker's process) after the worker has
    paid the per-item costs — the hook where a caller transmits a frame
    or completes a descriptor. [batch_budget] (default 64) is how many
    items the worker drains per wakeup before checking for parking,
    like NAPI's budget. *)

val start : t -> unit
(** Spawns the worker process (initially parked). *)

val submit : t -> int -> unit
(** Queue one item (a frame/descriptor id) for the worker. Never
    blocks; wakes a parked worker, paying the wake cost. *)

val shutdown : t -> unit
(** Ask the worker to exit once its queue drains; returns immediately.
    The simulation ends cleanly afterwards. *)

val is_parked : t -> bool
val processed : t -> int
val wakeups : t -> int
(** Times the worker was woken from park: submits that found it
    sleeping. *)

val max_queue_depth : t -> int
