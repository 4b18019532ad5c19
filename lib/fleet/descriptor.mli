(** Fleet descriptors: what a dense multi-VM host should run.

    The ISCA paper measures one guest per host; production ARM servers
    pack hundreds of microVMs onto the same 8 cores. A descriptor names
    the fleet size, the per-VM workload profiles (drawn from the
    {!Armvirt_workloads.Workload} catalog via
    [Armvirt_workloads.Fleet_profiles], or synthetic), and the
    scheduling parameters the {!Scenario} engines feed into
    {!Armvirt_hypervisor.Credit_sched}. *)

type profile = {
  name : string;
  vcpus : int;  (** VCPUs per guest of this profile. *)
  mem_mb : int;  (** Memory share (reported, not simulated byte-by-byte). *)
  weight : int;  (** Credit-scheduler proportional share (256 = 1.0x). *)
  cap_pct : int;  (** Credit-scheduler cap in percent; 0 = uncapped. *)
  boot_cycles : int;  (** Per-VCPU CPU work from arrival to ready. *)
  work_cycles : int;  (** Mean per-VCPU steady-state work (churn lifetime). *)
}

val default_weight : int

val synthetic : profile
(** A 1-VCPU, 256 MB microVM with ~16 ms of boot work at 2.4 GHz. *)

type t = {
  vms : int;
  mix : (profile * int) list;
      (** Weighted profile mix, e.g. [[(memcached, 2); (kernbench, 1)]]. *)
  timeslice_ms : float;  (** Credit-scheduler preemption quantum. *)
  refill_quanta : int;
      (** Quanta between periodic credit refills (Xen ticks every 10). *)
}

val max_vms : int
(** 65 536: the largest fleet a descriptor admits. *)

val max_vcpus : int
(** 131 072: the most VCPUs a descriptor admits in all, what
    {!max_vms} guests of a 2-VCPU Table IV profile make. *)

val v :
  ?timeslice_ms:float -> ?refill_quanta:int -> vms:int ->
  (profile * int) list -> t
(** Validating constructor. Raises [Invalid_argument] on a non-positive
    fleet size, timeslice, share, or per-profile parameter, or a fleet
    larger than {!max_vms} guests or {!max_vcpus} VCPUs. Allocates nothing before validating. *)

val validate : t -> unit

val profile_of : t -> int -> profile
(** [profile_of t i] is VM [i]'s profile: the mix expands into a
    repeating pattern in declaration order, so composition is
    deterministic and independent of fleet size. *)
