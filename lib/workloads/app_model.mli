(** The bottleneck model behind Figure 4.

    For a workload profile and a hypervisor's {!Armvirt_hypervisor.Io_profile},
    compute normalized performance (virtualized time / native time, 1.0 =
    native) by charging every event its per-event cost and finding the
    binding resource. Three resources can bind (section V's analysis):

    - {b VCPU0}: all virtual interrupts are delivered to one VCPU; each
      delivery also steals hypervisor handling time on that VCPU's PCPU
      and pollutes its caches ({!irq_preempt_penalty}).
    - {b the other VCPUs}: application work plus guest-side frontend
      costs (kicks, per-packet ring/grant work).
    - {b the backend}: host-kernel vhost (KVM) or Dom0 netback (Xen,
      single-threaded per virtual interface) plus grant/copy costs.

    The [irq_distribution] switch reproduces the paper's ablation:
    "distributing virtual interrupts across multiple VCPUs causes
    performance overhead to drop" — spreading both the native interrupt
    work and the virtualization surcharge over all VCPUs (which also
    restores interrupt coalescing, since every VCPU then polls). *)

type irq_distribution =
  | Single_vcpu  (** The measured default: everything lands on VCPU0. *)
  | All_vcpus  (** The ablation. *)
  | Spread of int
      (** Virtio-net multiqueue with this many queues: interrupts land
          on that many VCPUs — the mechanism that later productized the
          paper's ablation. [Spread 1 = Single_vcpu],
          [Spread 4 = All_vcpus]. Raises [Invalid_argument] outside
          1–4. *)

type verdict = {
  normalized : float;  (** ≥ 1.0; Figure 4's bar height. *)
  bottleneck : string;  (** Which resource bound ("vcpu0", "vcpus", "backend"). *)
  vcpu0_share : float;  (** VCPU0 demand / native per-VCPU demand. *)
  added_cycles : float;  (** Total virtualization surcharge per unit. *)
}

val run :
  ?irq_distribution:irq_distribution ->
  Workload.t ->
  Armvirt_hypervisor.Hypervisor.t ->
  verdict
(** Raises [Invalid_argument] if the profile is inconsistent (e.g.
    [irq_side_cycles > total_cycles]). The native hypervisor yields
    [normalized = 1.0] exactly. *)

val overhead_percent : verdict -> float
(** [(normalized - 1) * 100]. *)
