(** The uniform face of a hypervisor under measurement.

    Each concrete model ({!Kvm_arm}, {!Xen_arm}, {!Kvm_x86}, {!Xen_x86},
    {!Native}) builds this record; the microbenchmark suite and the
    application workload models drive it without knowing which design is
    underneath — exactly how the paper's custom kernel driver "executed
    the microbenchmarks in the same way across all platforms"
    (section IV).

    The synchronous operations ([hypercall], [interrupt_controller_trap],
    [virtual_irq_completion], [vm_switch]) run entirely on the calling
    simulated CPU: callers time them with
    {!Armvirt_stats.Cycle_counter.measure}. The asynchronous ones
    ([virtual_ipi], [io_latency_out], [io_latency_in]) span PCPUs and
    return the measured latency themselves, as the paper does with
    synchronized counters. All must be invoked inside a simulation
    process. *)

type marks = {
  hypercall : Armvirt_arch.Machine.marker;
  ict : Armvirt_arch.Machine.marker;
  virq_completion : Armvirt_arch.Machine.marker;
  vm_switch : Armvirt_arch.Machine.marker;
  vipi : Armvirt_arch.Machine.marker;
  io_out : Armvirt_arch.Machine.marker;
  io_in : Armvirt_arch.Machine.marker;
  transitions : Armvirt_arch.Transitions.t;
}
(** What every model counts: one ["<hyp>.<op>"] marker per Table I
    operation, counted on entry to it, and the model's exit and entry
    markers. Declared before {!t}, whose closure fields share some of
    these names. *)

val marks : Armvirt_arch.Machine.t -> hyp:string -> marks
(** Interns the markers on the machine; call it when the model is
    built. *)

type kind = Native | Type1 | Type2
(** [Native] is bare metal: no hypervisor, so no world switch. *)

type arch = Arm | X86

type t = {
  name : string;
  kind : kind;
  arch : arch;
  machine : Armvirt_arch.Machine.t;
  barrier_cost : Armvirt_engine.Cycles.t;
  hypercall : unit -> unit;
      (** No-op hypercall round trip: VM → hypervisor → VM. *)
  interrupt_controller_trap : unit -> unit;
      (** Trapped access to an emulated interrupt-controller register. *)
  virtual_irq_completion : unit -> unit;
      (** Guest acknowledges + completes a pending virtual interrupt. *)
  vm_switch : unit -> unit;
      (** Switch between two VMs on the same physical core. *)
  virtual_ipi : unit -> Armvirt_engine.Cycles.t;
      (** VCPU-to-VCPU IPI across PCPUs; returns send→handle latency. *)
  io_latency_out : unit -> Armvirt_engine.Cycles.t;
      (** Guest kick → virtual device backend notified. *)
  io_latency_in : unit -> Armvirt_engine.Cycles.t;
      (** Backend signal → guest interrupt handler. *)
  io_profile : Io_profile.t;
  migrate : Migrate_profile.t;
      (** Live-migration cost profile consumed by [lib/migrate]. *)
  guest : Armvirt_guest.Kernel_costs.t;
  transitions : Armvirt_arch.Transitions.t;
      (** The model's exit and entry markers (its {!marks}' table;
          prefix ["native"] on bare metal), for whatever switches worlds
          on the model's behalf, such as a fleet scheduler. *)
  hypercall_exit_entry : int;
      (** Cycles from the hypercall's exit marker to its entry marker,
          summed from the path costs [io_profile] and [migrate] are built
          from; [stat --crosscheck] holds the simulated path to it. *)
}

val request_service_cycles : t -> int
(** Guest-VCPU cycles to serve one request-response (TCP_RR,
    memcached): the guest's native server path plus the interrupt
    delivery, completion, frontend RX/TX and kick costs of the model's
    {!Io_profile}. The tail-latency, noisy-neighbor and cluster
    workloads all charge it. *)

val request_fixed_latency : t -> int
(** Latency one request pays outside the serving VCPU: the physical
    driver's extra wake-up, interrupt delivery into the VM and the
    notify out of it. *)

val remote_completion :
  Armvirt_arch.Machine.t ->
  name:string ->
  wire:Armvirt_engine.Cycles.t ->
  (unit -> unit) ->
  unit
(** [remote_completion m ~name ~wire path] models work continuing on a
    different PCPU: after [wire] cycles of propagation, [path] runs in a
    fresh process; the caller blocks until it finishes. Because the
    caller is parked the whole time, the caller's clock on return equals
    start + wire + cost of [path] — the cross-CPU latency. *)
