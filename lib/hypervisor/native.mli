(** Bare-metal execution: the baseline every Figure 4 bar is normalized
    against. All virtualization operations are free (they do not exist);
    interrupt completion is the hardware priority-drop write, the same
    71 cycles a VM pays through the hardware vGIC on ARM. *)

type t

val create : Armvirt_arch.Machine.t -> t
val to_hypervisor : t -> Hypervisor.t
