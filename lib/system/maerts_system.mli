(** A fully structural bulk transmit: the per-MTU TCP_MAERTS path.

    The guest process keeps at most an autosizing window of frames in
    flight through a real transmit ring; completions return over the
    hypervisor's interrupt path and reopen the window. Framing is
    per-MTU (TSO through the backend disabled), which surfaces the
    result the closed-form model folds away: granting and copying
    every 1500-byte frame individually caps Xen's transmit pipe well
    below the point where the collapsed autosizing window would bind —
    the reason restoring TSO batching (64 KB chunks through page-
    granular grants, the analytic model's regime) matters more than the
    window itself. KVM's zero-copy ring runs the same pattern at line
    rate.

    No experiment runs it: it is the structural reference that
    [test_system] holds {!Armvirt_workloads.Netperf.tcp_maerts}, Figure
    4's TCP_MAERTS row, against. *)

type result = {
  frames : int;
  gbps : float;
  window_frames : int;  (** The in-flight cap the guest ran with. *)
  completion_round_trips : int;
      (** Kicks issued — suppressed while the backend stays live. *)
  backend_bound : bool;
      (** Whether the backend's per-frame cost (grant + copy + wire),
          rather than the window, limited throughput. *)
}

val run :
  ?frames:int ->
  ?tso_bug:bool ->
  Armvirt_hypervisor.Hypervisor.t ->
  result
(** [frames] defaults to 1500; [tso_bug] to the guest kernel's flag.
    Raises [Invalid_argument] for the native configuration or a
    non-positive frame count. *)
