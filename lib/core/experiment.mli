(** The experiments: one computation per table/figure of the paper's
    evaluation, plus the ablations its text reports.

    Every function builds fresh simulated machines, runs the relevant
    workloads and returns structured results, never text; {!Report}
    builds each artifact's tables from them, next to {!Paper_data}, and
    {!Report.registry} maps each artifact id (the ids DESIGN.md's
    per-experiment index lists) to its computation and tables. *)

type quad_f = {
  q_kvm_arm : float option;
  q_xen_arm : float option;
  q_kvm_x86 : float option;
  q_xen_x86 : float option;
}

(** {1 Parallelism and memoization}

    Every experiment expresses its independent simulation cells as
    {!Runner} jobs: cells fan out over OCaml 5 domains (see
    [--jobs] / [ARMVIRT_JOBS]) and merge deterministically, so results
    are identical at every parallelism level. Microbenchmark columns are
    additionally memoized process-wide, keyed by
    [(platform, hyp, tuning, iterations)]: [table2], [vhe], [pinning],
    [gicv3], [vapic] and [lazyswitch] share identical columns instead of
    recomputing them per artifact. *)

val reset_memo : unit -> unit
(** Drops the shared microbenchmark memo table (benchmarks call this
    between timed runs so iterations don't measure cache hits). *)

val memo_stats : unit -> int * int
(** [(hits, misses)] of the shared memo table since process start. *)

(** {1 table2 — microbenchmarks} *)

type table2_row = { micro : string; measured : Paper_data.quad }

val table2 : ?iterations:int -> unit -> table2_row list
(** Runs the Table I suite on all four hypervisor models. *)

(** {1 table3 — KVM ARM hypercall decomposition} *)

val table3 : unit -> (string * int * int) list
(** [(register class, save, restore)] from the KVM ARM model's
    instrumentation. *)

(** {1 table5 — Netperf TCP_RR on ARM} *)

val table5 :
  ?transactions:int ->
  unit ->
  (string * Armvirt_workloads.Netperf.rr_result) list
(** Results for "Native", "KVM" and "Xen" on the ARM platform. *)

(** {1 fig4 — application benchmarks} *)

type fig4_row = { workload : string; values : quad_f }

val fig4 : unit -> fig4_row list
(** Normalized performance for all nine Table IV workloads on the four
    platform/hypervisor combinations. Apache on Xen x86 is [None],
    reproducing the paper's Dom0 kernel panic. *)

(** {1 vhe — section VI predictions} *)

type vhe_row = {
  operation : string;
  kvm_split : int;  (** Split-mode KVM ARM (ARMv8). *)
  kvm_vhe : int;  (** KVM on ARMv8.1 VHE. *)
  xen_baseline : int;  (** Xen ARM, the Type 1 reference. *)
}

val vhe : ?iterations:int -> unit -> vhe_row list
(** Hypercall, I/O latency and application-facing microbenchmarks under
    VHE: the transitions that shed the EL1 world switch. *)

val vhe_app : unit -> (string * float * float) list
(** [(workload, split-mode normalized, VHE normalized)] for the
    I/O-bound workloads the paper predicts would improve 10-20%. *)

(** {1 irqdist — distributing virtual interrupts (section V ablation)} *)

type irqdist_row = {
  ablation_workload : string;
  single_pct : float;
  distributed_pct : float;
}

val irqdist : unit -> (string * irqdist_row list) list
(** Overhead percentages for Apache and Memcached, keyed by hypervisor
    ("KVM ARM", "Xen ARM"). *)

(** {1 pinning — Xen I/O latency vs pinning config (section IV)} *)

val pinning : ?iterations:int -> unit -> (string * int * int) list
(** [(config, io latency out, io latency in)] for Dom0/DomU pinned to
    separate vs shared PCPUs. *)

(** {1 zerocopy — grant copy vs hypothetical ARM zero copy (section V)} *)

type zerocopy_row = {
  zc_config : string;
  stream_gbps : float;
  stream_norm : float;
}

val zerocopy : unit -> zerocopy_row list
(** TCP_STREAM on Xen ARM with the measured grant-copy backend and with
    a hypothetical broadcast-TLBI zero-copy backend, plus the x86
    break-even analysis that justified abandoning zero copy there. *)

val x86_zero_copy_break_even : unit -> int
(** Transfer size (bytes) below which copying beats mapping on Xen x86
    with 8-CPU TLB shootdowns. *)

(** {1 Extension experiments}

    These go beyond the paper's evaluation, completing analyses its
    text opens but never runs: oversubscription (the VM Switch cost at
    application level), disk I/O through the paravirtual stacks, tail
    latency under open-loop load, cold-start stage-2 faulting, and the
    vGIC list-register design parameter. *)

val oversub : unit -> (string * Armvirt_workloads.Oversub.result list) list
(** Per ARM hypervisor: a sweep over VM count and scheduler timeslice. *)

val disk : unit -> Armvirt_workloads.Diskbench.result list
(** Native/KVM/Xen on the m400 SSD, then on the r320 RAID array. *)

val tail : unit -> (float * Armvirt_workloads.Tail_latency.result list) list
(** Latency percentiles per offered load (native/KVM/Xen on ARM). *)

val coldstart : unit -> Armvirt_workloads.Coldstart.result list
(** Faulting in a 12 GB-scale working set (scaled down) per hypervisor. *)

val lrs : unit -> (string * Armvirt_workloads.Lr_sensitivity.result list) list
(** List-register sweep per ARM hypervisor. *)

val gicv3 : unit -> (string * (string * int) list) list
(** Microbenchmark rows for the GICv2 (measured), GICv3 and GICv3+VHE
    machines: how much of Table II is the X-Gene's slow GICv2 interface
    rather than hypervisor design. *)

val ticks : unit -> Armvirt_workloads.Timer_tick.result list
(** Virtual-timer tick overhead per hypervisor at several guest HZ. *)

type linkspeed_row = {
  ls_config : string;
  ls_wire_gbps : float;
  ls_gbps : float;
  ls_normalized : float;
}

val linkspeed : unit -> linkspeed_row list
(** TCP_STREAM over 1 GbE vs 10 GbE: the paper's observation that a
    slow wire hides virtualization overhead entirely (section III). *)

val isolation : unit -> Armvirt_workloads.Isolation.result list
(** The measurement-discipline demonstration: Hypercall samples with and
    without the paper's pinning/isolation (section IV). *)

val guestops : unit -> (string * Armvirt_workloads.Guest_ops.row list) list
(** lmbench-style guest-local operations per configuration: what
    virtualization does {e not} cost (section V's "largely without the
    hypervisor's involvement"). *)

val multiqueue : unit -> (string * (int * float) list) list
(** Virtio-net multiqueue: Apache overhead vs queue count on the ARM
    hypervisors — the production mechanism behind the paper's
    interrupt-distribution ablation. [(hypervisor, [(queues,
    normalized)])]. *)

val tracereplay : unit -> (string * Armvirt_workloads.Trace_replay.result) list
(** A synthetic web-mix trace replayed per hypervisor: per-class and
    tail surcharges instead of one averaged bar. *)

type twodwalk_row = {
  tw_config : string;
  tw_walk_accesses : int;
  tw_walk_cycles : int;
  tw_overhead_pct_at_1_miss_per_1k : float;
      (** Added CPU at one TLB miss per 10,000 instructions (IPC 1). *)
}

val twodwalk : unit -> twodwalk_row list
(** Nested paging's constant tax: the 4-access native page walk becomes
    a 24-access two-dimensional walk under stage-2 — measured by really
    walking a guest stage-1 radix table through a stage-2 table
    ({!Armvirt_mem.Stage1.walk_2d}). Identical for every hypervisor and
    untouched by VHE: this cost is the hardware's, not the
    hypervisor's. *)

val vapic : unit -> (string * (string * int) list) list
(** The x86 counterpart of ARM's hardware interrupt completion:
    Table II's x86 rows re-measured on a vAPIC-capable machine
    (section IV: "newer x86 hardware with vAPIC support should perform
    more comparably to ARM"). *)

val vapic_apps : unit -> (string * float * float) list
(** [(workload, pre-vAPIC normalized, vAPIC normalized)] for the
    interrupt-heavy workloads on KVM x86. *)

val crosscall : unit -> Armvirt_workloads.Crosscall.result list
(** Guest broadcast cross-calls (remote TLB flush) per configuration:
    the guest-visible face of the x86 shootdown cost of section V. *)

val lazyswitch : unit -> (string * (string * int) list) list
(** The post-paper KVM ARM optimizations (lazy FP switching, lazy VGIC
    read-back) applied to the split-mode model: microbenchmark rows for
    stock, each optimization alone, both, and VHE for reference. *)

type consolidation_row = {
  cons_config : string;
  cons_vms : int;
  cons_per_vm_ops : float;  (** Memcached kilo-ops/s each VM sustains. *)
  cons_aggregate_ops : float;
  cons_bottleneck : string;
}

val consolidation : unit -> consolidation_row list
(** VM density: N memcached VMs per host. KVM scales per-VM vhost
    threads; Xen funnels every VM through netback in Dom0. *)

val migrate :
  ?plan:Armvirt_migrate.Plan.t ->
  unit ->
  (string * Armvirt_workloads.Migration.result) list
(** Live migration under request load on every platform/hypervisor
    model, fanned out as independent {!Runner} cells (one fresh machine
    each, so results are identical at every [--jobs] level). Order:
    KVM ARM (VHE), KVM ARM, Xen ARM, KVM x86, Xen x86 — on the default
    plan the blackouts reproduce the architectural ordering
    VHE < split-mode KVM ARM < Xen x86, while Xen ARM's grant-copy
    transport fails to converge and hits the round cap. *)

val fleet_boot_storm :
  ?vms:int ->
  ?mix:(Armvirt_fleet.Descriptor.profile * int) list ->
  unit ->
  (string * Armvirt_fleet.Scenario.boot_storm_result) list
(** Boot-storm the fleet (default 64 guests) on every platform/
    hypervisor model, one runner cell each, seeded per cell identity so
    the report is byte-identical at any [--jobs] level. *)

val fleet_churn :
  ?vms:int ->
  ?mix:(Armvirt_fleet.Descriptor.profile * int) list ->
  unit ->
  (string * Armvirt_fleet.Scenario.churn_result) list
(** Poisson arrival/departure churn (default 32 initial guests) on
    every model. *)

val fleet_noisy :
  ?sizes:int list ->
  ?mix:(Armvirt_fleet.Descriptor.profile * int) list ->
  unit ->
  (string * int * Armvirt_fleet.Scenario.noisy_result) list
(** Noisy-neighbor victim p99 per (model, fleet size) — default sizes
    [1; 2; 4; 8; 16]. The scenario seed ignores the fleet size, so
    within one model the p99 column is monotonically non-decreasing in
    the size column. *)

type structural_row = {
  st_config : string;
  st_metric : string;
  st_structural : float;
  st_analytic : float;
  st_agreement_pct : float;  (** structural / analytic × 100. *)
}

val structural : unit -> structural_row list
(** Cross-validation: the [lib/system] end-to-end stacks (TCP_RR through
    real rings/grants/vGIC; Hackbench through real mailboxes/IPIs)
    against the analytic models that regenerate the paper's numbers. *)

val cluster_matrix :
  ?vms:int ->
  ?spec:Armvirt_vswitch.Topology.spec ->
  unit ->
  (string * Armvirt_workloads.Cluster.matrix_result) list
(** Pairwise VM-to-VM throughput matrix (default 4 VMs on a two-host
    pair) on every platform/hypervisor model, one runner cell each, so
    the report is byte-identical at any [--jobs] level. Same-host pairs
    expose the port-cost gap (zero-copy vhost above Xen's Dom0 copies);
    cross-host pairs bound on the 10 GbE uplink. *)

val cluster_chain :
  ?requests:int ->
  ?spec:Armvirt_vswitch.Topology.spec ->
  unit ->
  (string * Armvirt_workloads.Cluster.chain_result) list
(** Client → LB → backend service chain with per-hop mean latencies on
    every model. *)

val cluster_loadgen :
  ?vms:int ->
  ?spec:Armvirt_vswitch.Topology.spec ->
  ?loads:float list ->
  unit ->
  (string * Armvirt_workloads.Cluster.loadgen_result) list
(** Open-loop tail-latency-vs-offered-load sweep (default 16 backends)
    on every model. The per-cell seed ignores the offered load, so each
    curve replays one arrival skeleton and p99 is monotone in load. *)
