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

    Each PCPU keeps a runqueue of exactly its runnable VCPUs ([R] of
    them; [V] VCPUs registered in all). Until a capped VCPU, or one off
    the default weight 256, first joins it (no CLI fleet has one), the
    runqueue is ordered as Xen 4.5 orders it: by boost, then credit,
    then enqueue stamp, in binary heaps. [pick] reads the head,
    [charge] and [set_runnable] re-key one entry in O(log R), and
    [periodic_refill] adds [cycles / R] to a per-runqueue credit
    offset; a balance the refill lifts to the initial credit joins a
    clamped class that holds exactly that credit, FIFO.

    From that join on, the runqueue scans instead, for good: its VCPUs
    in ascending (dom, index) order, O(R) per pick and per refill.
    Across a cap boundary the pick comparison is not transitive, so
    only that scan order defines the winner; with unequal weights the
    refill grant is not uniform. *)

type vcpu = { dom : int; index : int }

val equal_vcpu : vcpu -> vcpu -> bool
(** Same domain and index: VCPU identity without polymorphic compare. *)

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
    records the switch. Raises [Invalid_argument] if unknown. Costs
    what [set_runnable t vcpu false] costs. *)

val set_runnable : t -> vcpu -> bool -> unit
(** Blocking/waking. Waking boosts the VCPU to the front of its
    runqueue (Xen's BOOST priority), letting I/O-blocked VCPUs preempt
    CPU hogs — the behaviour that keeps latency-sensitive VMs alive
    under oversubscription. O(log R) on an ordered runqueue; O(R) on a
    scanned one (sorted insert or delete), and O(R log R) once, when
    the first capped or off-weight VCPU wakes on it and it changes
    layout. *)

val pick : t -> pcpu:int -> vcpu option
(** Schedules the next VCPU on a PCPU: the runnable VCPU with the most
    credit (FIFO among ties), or [None] to run the idle context.
    Recorded as a context switch when it differs from the incumbent.
    Allocates nothing. O(log R) amortized on an ordered runqueue (the
    head, once stale heap entries are dropped); O(R) on a scanned one,
    always in ascending (dom, index) order. That order is part of the
    contract: once capped and uncapped VCPUs share a PCPU the pick
    comparison is not transitive, so a different scan order could pick
    differently. Raises [Invalid_argument] for an out-of-range PCPU. *)

val charge : t -> pcpu:int -> cycles:int -> unit
(** Burns credit on the currently running VCPU. When every runnable
    VCPU in the system is out of credit, credits refill. O(log R) to
    re-key the VCPU and O(PCPUs) at most for the exhaustion test, plus
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
    refill never fires. An ordered runqueue moves its offset and then
    only the VCPUs that reach the clamp, O(log R) each; a scanned one
    walks its VCPUs. Raises [Invalid_argument] on
    negative [cycles]. *)

val current : t -> pcpu:int -> vcpu option
(** The PCPU's incumbent, O(1), without allocating. Raises [Invalid_argument] for an
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
