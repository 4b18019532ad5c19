(** Hardware cost models for the two simulated server platforms.

    Every architectural operation the hypervisor models perform is priced
    here, in cycles. The ARM per-register-class costs are taken verbatim
    from the paper's Table III, which decomposes the KVM ARM hypercall on
    the HP Moonshot m400 (APM X-Gene "Atlas", 2.4 GHz). The remaining
    constants are calibrated so the seven Table II microbenchmarks
    reproduce the paper's measurements; each constant documents what it
    prices. Calibration constants appear {e only} in this module — the
    hypervisor models compose operations, never raw numbers. *)

type reg_costs = { save : int; restore : int }
(** Cycles to context switch one register class out of / into the CPU.
    "Save" is the exit-side switch (VM state out, host state in); for the
    VGIC class it is dominated by reading the GIC virtual interface over
    the slow interconnect, which is why save ≫ restore (3,250 vs 181) —
    the asymmetry behind the paper's observation that leaving a VM costs
    much more than re-entering it. *)

type arm = {
  freq_ghz : float;  (** 2.4 for the m400 *)
  trap_to_el2 : int;
      (** Hardware exception entry from EL0/EL1 into EL2: bank PC/PSTATE,
          fetch vector. Cheap by design — ARM's RISC-style transition. *)
  eret : int;  (** Exception return from EL2 to EL0/EL1. *)
  hvc_issue : int;  (** Guest-side cost of issuing HVC before the trap. *)
  stage2_toggle : int;
      (** One reconfiguration of HCR_EL2 (traps + Stage-2 translation).
          Split-mode KVM pays this twice per transition — disabling
          virtualization features to run the host, re-enabling to run the
          VM; an EL2-resident hypervisor never does. *)
  reg : Reg_class.t -> reg_costs;  (** Table III. *)
  vgic_slot_scan : int;
      (** Reading list-register status (ELRSR/EISR) to find a free slot
          before injecting a virtual interrupt. A GIC MMIO read. *)
  vgic_lr_write : int;  (** Writing one list register to inject a vIRQ. *)
  virq_complete : int;
      (** Guest acknowledging + completing a virtual interrupt through the
          hardware GIC virtual CPU interface, no trap: the paper's 71. *)
  virq_guest_dispatch : int;
      (** Guest vector fetch → handler entry for a delivered interrupt. *)
  phys_ipi_wire : int;
      (** GIC SGI propagation latency between two physical CPUs. *)
  mmio_decode : int;
      (** Stage-2 abort syndrome decode for a trapped MMIO access — paid
          by any hypervisor before emulating a device register. *)
  timestamp_barrier : int;  (** isb around counter reads (section IV). *)
  tlb_broadcast_invalidate : int;
      (** Inner-shareable TLBI: ARM invalidates remote TLBs in hardware,
          no IPIs — the capability section V notes might make Xen
          zero-copy viable on ARM. *)
  tlb_local_invalidate : int;
  per_byte_copy : float;  (** Cycles per byte of kernel memcpy. *)
  page_map_cost : int;  (** Installing one page mapping (any table). *)
  stage2_wp_fault : int;
      (** Hypervisor-side handling of a stage-2 permission fault taken on
          a write-protected page during dirty logging: syndrome decode,
          dirty-bitmap update, and the write-permission restore — the
          software half of the fault, on top of the transition costs the
          hypervisor model composes around it. Distinct from
          [page_map_cost]: no table walk or allocation, the PTE exists. *)
  vhe : bool;
      (** ARMv8.1 Virtualization Host Extensions (E2H set): the host OS
          runs in EL2, so VM transitions skip the EL1 system-register
          switch and the Stage-2/trap toggling (section VI). *)
}

type x86 = {
  freq_ghz : float;  (** 2.1 for the r320 *)
  vmexit : int;
      (** Hardware VMCS state transfer, non-root → root. Fixed-function:
          both x86 hypervisors pay the same, which is why KVM x86 ≈ Xen
          x86 on the Hypercall microbenchmark. *)
  vmentry : int;  (** Root → non-root VMCS transfer. *)
  vmcall_issue : int;
  vapic : bool;
      (** Posted-interrupt/vAPIC support. The paper's Xeon E5-2450
          predates usable vAPIC, so EOIs trap (Table II: ~1.5k cycles vs
          71 on ARM). *)
  eoi_emul : int;  (** Software EOI handling in the hypervisor. *)
  virq_guest_dispatch : int;  (** IDT dispatch to the guest handler. *)
  phys_ipi_wire : int;  (** APIC ICR → remote LAPIC latency. *)
  timestamp_barrier : int;  (** lfence/rdtsc discipline. *)
  tlb_shootdown_base : int;
  tlb_shootdown_per_cpu : int;
      (** x86 remote TLB invalidation requires an IPI per CPU — the cost
          that made Xen x86 zero-copy "more expensive than simply copying
          the data" (section V). *)
  per_byte_copy : float;
  page_map_cost : int;
  stage2_wp_fault : int;
      (** EPT-violation handling for a write to a logged page: dirty
          bitmap update + EPT permission restore, excluding the VMCS
          transition pair around it. *)
}

type t = Arm of arm | X86 of x86

val arm_default : arm
(** The m400 model, Table III register costs, Table II calibration. *)

val arm_vhe : arm
(** {!arm_default} with VHE enabled — the ARMv8.1 machine of section VI. *)

val arm_gicv3 : arm
(** The m400 with a GICv3-style system-register CPU interface: list
    registers live behind ICH_* system registers, so the VGIC save cost
    collapses from 3,250 cycles of interconnect MMIO to ordinary
    register moves. Table III's dominant line is a GICv2/X-Gene
    artifact; this machine quantifies that (the [gicv3] experiment). *)

val arm_gicv3_vhe : arm
(** Both fixes together: the configuration of later ARM server cores
    (e.g. Neoverse-class). *)

val x86_default : x86
(** The r320 model. *)

val freq_ghz : t -> float

(** {1 Copy-with-override}

    What-if machines are functional updates of a base model — callers
    (the GICv3/vAPIC ablations, [lib/explore]'s design points) never
    mutate shared model state, so perturbed and stock machines coexist
    in one process and across runner domains. *)

val with_vhe : bool -> arm -> arm
(** Flip the ARMv8.1 E2H behaviour on a copy of the model. *)

val with_stage2_wp_fault : int -> arm -> arm
(** Override the dirty-logging write-protect fault cost — the knob
    [lib/explore] sweeps to ask how much fault-handling software cost
    contributes to migration downtime. *)

val with_reg_cost : Reg_class.t -> save:int -> restore:int -> arm -> arm
(** Override one register class's context-switch costs, leaving every
    other class of the table untouched. *)

val arm_full_save : arm -> int
(** Σ save over {!Reg_class.full_world_switch} — the exit-side switch of
    split-mode KVM (4,202 in Table III). *)

val arm_full_restore : arm -> int
(** Σ restore — the entry-side switch (1,506 in Table III). *)

val arm_save : arm -> Reg_class.t list -> int
val arm_restore : arm -> Reg_class.t list -> int

val copy_cost : per_byte:float -> bytes:int -> int
(** Cycles to copy [bytes] at [per_byte] cycles/byte, at least 1 cycle for
    a non-empty copy. *)
