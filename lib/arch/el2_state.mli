(** The EL2 world state machine: which context owns EL1, and whether the
    virtualization features are armed.

    Section II describes the discipline in prose; this module enforces
    it. A split-mode hypervisor (KVM on ARMv8) "enables virtualization
    features in EL2 when switching from the host to a VM, and disables
    them when switching back, allowing the host full access to the
    hardware from EL1 and properly isolating VMs also running in EL1".
    An EL2-resident hypervisor (Xen) never hands EL1 to a host. Under
    VHE the host lives in EL2 and the question disappears.

    The hypervisor models drive this machine alongside their cost
    accounting, so a model bug that would, say, run the host with
    Stage-2 translation still enabled raises {!Invalid_transition}
    instead of silently mis-measuring. *)

type mode =
  | Split_mode  (** Type 2 on ARMv8: host and VMs share EL1. *)
  | El2_resident  (** Type 1: the hypervisor owns EL2, VMs own EL1. *)
  | Vhe  (** Type 2 on ARMv8.1: host in EL2. *)

type context = Host | Vm of int  (** Who owns the EL1 register state. *)

exception Invalid_transition of string

type t

val create : mode -> t
(** Split-mode and VHE machines boot with the host running; an
    EL2-resident machine boots in the hypervisor with the idle VM (-1)
    loaded. *)

val mode : t -> mode
val el1_owner : t -> context
val stage2_enabled : t -> bool
val traps_enabled : t -> bool

val running_vm : t -> int option
(** The VM currently executing, if any. *)

val enter_vm : t -> domid:int -> unit
(** Start executing VM [domid]. Requires its EL1 state loaded and — on a
    split-mode machine — Stage-2 and traps enabled. *)

val exit_to_el2 : t -> unit
(** A trap lands in EL2 (any mode). *)

val load_el1 : t -> context -> unit
(** Context switch the EL1 register state. Only legal from EL2 (not
    while a VM executes). Loading [Host] on an EL2-resident or VHE
    machine raises: their hosts do not live in EL1. *)

val enable_virtualization : t -> unit
(** Arm Stage-2 + traps (split-mode only; the others never disarm). *)

val disable_virtualization : t -> unit
(** Disarm them to give the host EL1 — split-mode only, and only when
    the host's state is loaded. *)

val run_host : t -> unit
(** Execute the host OS. Split-mode: requires host EL1 loaded and
    virtualization disabled. VHE/EL2-resident: the host/hypervisor runs
    in EL2, always legal from EL2. *)

val establish :
  t -> el1:context -> executing:[ `El2 | `Host | `Vm of int ] -> unit
(** Benchmark setup: place the machine in a precondition that prior,
    off-the-measured-path activity established (e.g. "the VCPU blocked
    in WFI earlier", "Dom0 idled and the idle domain is in"). Performs
    no validation by design; the measured path that follows is still
    fully checked. Must not be used inside a measured path. *)
