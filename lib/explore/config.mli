(** A fully specified design point: ARM cost model + KVM tuning +
    interrupt-hardware and backend knobs + hypervisor choice.

    Everything is a functional update over {!default} — applying a
    sampled {!Space.point} builds a fresh record, and {!hypervisor}
    builds a fresh simulated machine from it, so points evaluated in
    parallel runner domains share nothing. *)

type hyp_choice = Kvm | Xen | Native

type fleet_cfg = {
  fleet_vms : int;  (** Guests consolidated for the [fleet-*] objectives. *)
  fleet_vcpus : int;  (** VCPUs per fleet guest. *)
  fleet_timeslice_ms : float;  (** Credit-scheduler timeslice. *)
}

type cluster_cfg = {
  cluster_vms : int;  (** VMs on the two-host cluster topology. *)
  cluster_load : float;  (** Offered load, fraction of native capacity. *)
  net_queue : int;  (** Virtual-switch per-port egress queue, frames. *)
  net_uplink_gbps : float;  (** Cross-host uplink wire rate. *)
}

type t = {
  arm : Armvirt_arch.Cost_model.arm;
  tuning : Armvirt_hypervisor.Kvm_arm.tuning;
  num_lrs : int;  (** List registers, consumed by the LR objectives. *)
  vhost : bool;  (** [false] models a userspace (QEMU-style) backend. *)
  hyp : hyp_choice;
  migration : Armvirt_migrate.Plan.t;
      (** Scenario for the [mig-*] objectives; the [mig.*] knobs edit it
          (page-size edits hold total guest memory constant). *)
  fleet : fleet_cfg;
      (** Consolidation scenario for the [fleet-*] objectives; the
          [fleet.*] knobs edit it. *)
  cluster : cluster_cfg;
      (** Cluster-networking scenario for the [cluster-*] and [chain-*]
          objectives; the [cluster.*] and [net.*] knobs edit it. *)
}

val default : t
(** The paper's measured m400 KVM configuration: {!Armvirt_arch.Cost_model.arm_default},
    {!Armvirt_hypervisor.Kvm_arm.default_tuning}, 4 list registers
    (GIC-400), VHOST on. *)

val knobs : (string * string) list
(** Every axis name {!apply} understands, with a one-line description. *)

val apply : t -> string -> Space.value -> t
(** [apply t name v] returns a copy with one knob overridden. Raises
    [Invalid_argument] on an unknown name or a value of the wrong kind. *)

val fleet_descriptor : t -> Armvirt_fleet.Descriptor.t
(** The one-profile fleet of the [fleet-*] objectives: [fleet.vms]
    guests of {!Armvirt_fleet.Descriptor.synthetic}, [fleet.vcpus]
    VCPUs each. Raises [Invalid_argument] where
    {!Armvirt_fleet.Descriptor.v} does. *)

val apply_point : t -> Space.point -> t
(** Applies every binding in order, then builds the point's
    {!fleet_descriptor}, so a point past the fleet VCPU budget is
    refused here. Raises [Invalid_argument] as {!apply} does. *)

val hypervisor : t -> Armvirt_hypervisor.Hypervisor.t
(** Build a fresh machine + hypervisor for the point. VHE is forced off
    for [Xen]/[Native] (Type 1 and bare metal leave E2H clear), and
    [vhost = false] quadruples the per-packet backend cost. *)
