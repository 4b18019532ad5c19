(** Structural VM consolidation: N request streams against the two
    backend architectures.

    The analytic consolidation experiment reasons about ceilings; this
    one runs the contention. Each simulated VM produces a request
    stream; KVM gives every VM its own vhost worker
    ({!Armvirt_hypervisor.Backend_thread}), Xen funnels all of them
    through a single netback worker in Dom0. The result is the
    completion makespan and each VM's share — fairness and serialization
    measured, not asserted.

    No experiment runs it: [test_system] checks with it the one-vhost-
    per-VM versus one-netback contrast the consolidation experiment
    assumes. *)

type result = {
  vms : int;
  requests_per_vm : int;
  makespan_ms : float;
  per_vm_throughput : float list;
      (** Requests/ms each VM achieved, VM order. *)
  fairness : float;
      (** Jain's index over per-VM throughput: 1.0 is perfectly fair. *)
  backend_workers : int;
}

val run :
  ?vms:int ->
  ?requests_per_vm:int ->
  Armvirt_hypervisor.Hypervisor.t ->
  result
(** [vms] defaults to 4, [requests_per_vm] to 200. Raises
    [Invalid_argument] for the native configuration or non-positive
    parameters. *)
