(** A credit-style proportional-share VCPU scheduler, modelled on Xen's
    credit scheduler (also a reasonable stand-in for CFS with QEMU
    processes).

    The paper's VM Switch microbenchmark measures "a central cost when
    oversubscribing physical CPUs"; this module supplies the scheduling
    substrate that turns that per-switch cost into an application-level
    overhead (see {!Armvirt_workloads.Oversub}). The model keeps the
    essentials: per-VCPU credits burned while running, wake-up boosting,
    affinity, round-robin among equal-credit VCPUs, and a global refill
    when the runnable set exhausts its credits.

    Each PCPU keeps a runqueue of exactly its runnable VCPUs, in
    ascending (dom, index) order, and the scheduler keeps two counts:
    runnable VCPUs, and runnable VCPUs with credit > 0. With [V] VCPUs
    registered and [R] runnable on the PCPU concerned, one
    quantum-stepped pass over every PCPU (see
    [Armvirt_fleet.Scenario]) costs O(sum of R), not O(PCPUs * V). *)

type vcpu = { dom : int; index : int }

type t

val create : num_pcpus:int -> timeslice_cycles:int -> t
(** [timeslice_cycles] is the credit charge that forces a preemption
    check (Xen defaults to 30 ms; experiments use shorter slices).
    Raises [Invalid_argument] on non-positive arguments. *)

val add_vcpu : ?weight:int -> ?cap:int -> t -> vcpu -> affinity:int -> unit
(** Registers a VCPU pinned to one PCPU (the paper's configuration).
    [weight] (default {!default_weight}) scales the VCPU's refill grant
    proportionally, so a weight-512 VCPU accumulates credit twice as
    fast as a weight-256 one. [cap] (default 0 = uncapped) is a
    percent ceiling: a capped VCPU's credit is clamped to
    [cap/100 * initial_credit] at every refill and the VCPU is
    throttled — runnable but unschedulable — whenever its credit is
    exhausted, bounding its PCPU share even when cycles are idle.
    Raises [Invalid_argument] for an out-of-range PCPU, a weight < 1,
    a cap outside [0, 100], or a duplicate VCPU. O(1). *)

val remove_vcpu : t -> vcpu -> unit
(** Deregisters a VCPU (a departing guest under churn). If it was the
    incumbent on its PCPU the slot falls back to idle; the next [pick]
    records the switch. Raises [Invalid_argument] if unknown. O(R): a
    runnable VCPU leaves its runqueue by a sorted delete. *)

val set_runnable : t -> vcpu -> bool -> unit
(** Blocking/waking. Waking boosts the VCPU to the front of its
    runqueue (Xen's BOOST priority), letting I/O-blocked VCPUs preempt
    CPU hogs — the behaviour that keeps latency-sensitive VMs alive
    under oversubscription. O(R) for a change of runnability (sorted
    insert or delete; O(log R) when the VCPU sorts last, as each new
    domid of a boot storm does), O(1) otherwise. *)

val pick : t -> pcpu:int -> vcpu option
(** Schedules the next VCPU on a PCPU: the runnable VCPU with the most
    credit (FIFO among ties), or [None] to run the idle context.
    Recorded as a context switch when it differs from the incumbent.
    O(R): one scan of the PCPU's runqueue, always in ascending
    (dom, index) order. The order is part of the contract — once capped
    and uncapped VCPUs share a PCPU the pick comparison is not
    transitive, so a different scan order could pick differently.
    Raises [Invalid_argument] for an out-of-range PCPU. *)

val charge : t -> pcpu:int -> cycles:int -> unit
(** Burns credit on the currently running VCPU. When every runnable
    VCPU in the system is out of credit, credits refill. O(1), plus
    O(V) per refill grant on the rare exhausted call: blocked VCPUs
    earn credit too. Raises [Invalid_argument] on negative [cycles] or
    an out-of-range PCPU. *)

val periodic_refill : t -> cycles:int -> unit
(** Xen's periodic accounting tick. [cycles] is the per-PCPU capacity
    elapsed since the last tick; it is distributed among each PCPU's
    runnable VCPUs proportionally to weight, bounded by each cap's
    share of the interval, and clamped at the initial credit to
    prevent hoarding. Quantum-stepped drivers (see
    [Armvirt_fleet.Scenario]) call this on a fixed cadence so caps and
    weights shape throughput even when the work-conserving exhaustion
    refill never fires. O(PCPUs + runnable VCPUs): weight sums and
    grants come from the runqueues. Raises [Invalid_argument] on
    negative [cycles]. *)

val current : t -> pcpu:int -> vcpu option
(** The PCPU's incumbent, O(1). Raises [Invalid_argument] for an
    out-of-range PCPU. *)

val credit_of : t -> vcpu -> int
val switches : t -> int
(** Context switches performed so far (idle transitions included). *)

val refills : t -> int

val run_to_completion :
  t -> work:(vcpu * int) list -> switch_cost:int -> int * int
(** [run_to_completion t ~work ~switch_cost] simulates the pinned
    system until every VCPU finishes its assigned cycles of CPU-bound
    work, charging [switch_cost] per context switch. Returns
    [(makespan_cycles, total_switches)], where the makespan is the
    busiest PCPU's total including switching overhead. Raises
    [Invalid_argument] if a listed VCPU was never added. *)
