(** Per-hypervisor live-migration costs, the currency of [lib/migrate].

    Live migration exercises exactly the transitions the paper prices:
    every dirty-logging fault is a VM-to-hypervisor round trip (Table I),
    and every shipped page crosses the same transmit machinery as the
    I/O workloads — KVM's migration thread feeds a vhost ring from the
    host kernel, Xen's toolstack pulls pages through grant
    copies and event channels via Dom0 (section V). Each hypervisor
    model composes its profile from the same path sums as its
    {!Io_profile}, so ARM vs x86 and KVM vs Xen migration diverge for
    the documented architectural reasons, not ad-hoc constants. *)

type t = {
  transport : string;
      (** Page transport: ["vhost"] (KVM), ["grant"] (Xen), ["none"]. *)
  wp_fault_guest_cpu : int;
      (** Guest-VCPU cycles for one dirty-logging write-protect fault:
          trap to the hypervisor, fault handling
          ({!Armvirt_arch.Cost_model.arm.stage2_wp_fault}), permission
          restore, TLB maintenance, re-entry. The VHE/non-VHE and
          ARM/x86 transition costs make this the per-hypervisor
          signature of migration's guest-visible overhead. *)
  harvest_per_page : int;
      (** Migration-side cycles to harvest one dirty page and re-arm its
          write protection (bitmap scan + PTE demote + TLB maintenance). *)
  page_copy_per_byte : float;
      (** Staging copy out of guest memory toward the transport. *)
  page_send_per_page : int;
      (** Transport bookkeeping per shipped page: a vhost ring slot for
          KVM, a grant copy for Xen — the reason Xen rounds are longer
          than KVM rounds at identical bandwidth. *)
  batch_kick : int;
      (** Per-batch doorbell: an eventfd signal for KVM; an event
          channel plus Dom0 engagement for Xen. *)
  pause_vcpu : int;
      (** Cycles to stop one running VCPU at blackout entry. *)
  resume_vcpu : int;
      (** Cycles to resume one VCPU on the destination. *)
  state_transfer : int;
      (** Fixed VCPU/device state move during the blackout (register
          worlds, interrupt controller state). *)
}

val none : t
(** The native/no-hypervisor profile: free except for the raw memcpy a
    caller prices itself — the bare lower bound `bench migrate` compares
    against. *)

val blackout_page_cpu : t -> page_bytes:int -> int
(** CPU cycles the blackout pays per final-round page (harvest + copy +
    send), excluding wire time and the fixed pause/resume/state terms. *)
