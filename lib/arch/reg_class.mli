(** The register state classes a hypervisor multiplexes between contexts.

    These are exactly the rows of the paper's Table III ("KVM ARM Hypercall
    Analysis"): the classes of state that split-mode KVM ARM must context
    switch between the VM and the host on every transition, because both
    run in EL1. *)

type t =
  | Gp  (** General-purpose registers x0-x30 *)
  | Fp  (** Floating-point / SIMD registers *)
  | El1_sys  (** EL1 system registers (TTBRn_EL1, SCTLR_EL1, ...) *)
  | Vgic  (** GIC virtual interface state (list registers, VMCR, ...) *)
  | Timer  (** Generic timer registers (CNTV_*, CNTKCTL, ...) *)
  | El2_config  (** Per-VM EL2 configuration (HCR_EL2, VPIDR, ...) *)
  | El2_virtual_memory  (** Stage-2 configuration (VTTBR_EL2, VTCR_EL2) *)

val all : t list
(** In the paper's Table III row order. *)

val full_world_switch : t list
(** The classes split-mode KVM ARM switches on a VM exit/entry: all of
    {!all}. *)

val trap_only : t list
(** The classes a Type 1 hypervisor resident in EL2 switches to service a
    simple trap: general-purpose registers only (section IV: "Xen ARM
    which only incurs the relatively small cost of saving and restoring
    the general-purpose (GP) registers"). *)

val index : t -> int
(** Position in {!all}, for per-class tables. *)

val to_string : t -> string
