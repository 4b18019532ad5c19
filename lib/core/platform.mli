(** The two server platforms of the paper's testbed (section III), plus
    the ARMv8.1 what-if machine of section VI.

    Every constructor returns a {e fresh} simulated machine with its own
    event clock, so experiments are isolated exactly like the paper's
    dedicated CloudLab nodes. *)

type t =
  | Arm_m400
      (** HP Moonshot m400: ARMv8 APM X-Gene, 2.4 GHz, 8 cores. *)
  | Arm_m400_vhe
      (** The same machine with ARMv8.1 VHE — modelled, not measured, in
          the paper ("ARMv8.1 hardware is not yet available"). *)
  | X86_r320  (** Dell PowerEdge r320: Xeon E5-2450, 2.1 GHz, 8 cores. *)

type hyp_id = Kvm | Xen

val name : t -> string

val machine : t -> Armvirt_arch.Machine.t
(** A fresh machine (and simulation world). *)

val machine_with : cost:Armvirt_arch.Cost_model.t -> Armvirt_arch.Machine.t
(** A fresh machine on a custom cost model — the hook the GICv3/vAPIC
    ablations and [lib/explore]'s sampled design points use to run the
    hypervisor models on perturbed hardware. *)

val hypervisor : t -> hyp_id -> Armvirt_hypervisor.Hypervisor.t
(** A fresh machine running the given hypervisor. Raises
    [Invalid_argument] for [Xen] on [Arm_m400_vhe]: VHE only changes
    Type 2 hypervisors (Type 1 leaves E2H clear — section VI). *)

val native : t -> Armvirt_hypervisor.Hypervisor.t

val kvm_arm : unit -> Armvirt_hypervisor.Kvm_arm.t
val kvm_arm_vhe : unit -> Armvirt_hypervisor.Kvm_arm.t
val xen_arm :
  ?pinning:Armvirt_hypervisor.Xen_arm.pinning ->
  unit ->
  Armvirt_hypervisor.Xen_arm.t
val xen_x86 : unit -> Armvirt_hypervisor.Xen_x86.t
(** Typed access to the concrete models, for experiments that need more
    than the uniform interface (Table III breakdown, pinning and
    zero-copy ablations). Each call builds a fresh machine. *)
