(** A fully structural block I/O path: queue-depth-1 4 KB random reads
    through a real ring, the {!Armvirt_hypervisor.Backend_thread}
    worker, grants (for Xen) and the device model.

    The analytic {!Armvirt_workloads.Diskbench} prices the same path in
    closed form; this run exercises the protocol — descriptor ownership,
    grant map/unmap pairing, worker park/wake per request (queue depth 1
    means every request finds the worker asleep) — and must land on
    comparable latencies.

    No experiment runs it: it is the structural reference that
    [test_system] holds the disk experiment's
    {!Armvirt_workloads.Diskbench.run} against. *)

type result = {
  requests : int;
  mean_latency_us : float;
  backend_wakeups : int;
      (** Queue depth 1: one wakeup per request, exactly. *)
  ring_traffic : int;
}

val run :
  ?requests:int ->
  Armvirt_hypervisor.Hypervisor.t ->
  device:Armvirt_io.Blk_device.t ->
  result
(** [requests] defaults to 64. Raises [Invalid_argument] for the native
    configuration or a non-positive count. *)
