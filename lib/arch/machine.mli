(** A simulated server machine: PCPUs, a cost model, and accounting.

    Mirrors one CloudLab node from the paper's experimental setup
    (section III): 8 physical cores, one hypervisor, cycle counters. All
    hypervisor and workload models execute as simulation processes on a
    machine and price their work through {!spend}, which both advances
    simulated time and attributes the cycles to a named counter so the
    reports can decompose where time went.

    Labels are interned when a model is built: {!op} and {!marker} turn
    a label into a slot of this machine's counter set, and {!spend} and
    {!count} then update that slot by index, hashing and building no
    string. An op or marker carries its machine, so it can only ever
    charge the machine it was interned on. *)

type pcpu
(** One physical CPU. *)

type t

val create :
  Armvirt_engine.Sim.t -> cost:Cost_model.t -> num_cpus:int -> t
(** Raises [Invalid_argument] if [num_cpus < 1]. *)

val sim : t -> Armvirt_engine.Sim.t
val cost : t -> Cost_model.t
val counters : t -> Armvirt_stats.Counter.set
val num_cpus : t -> int

val pcpu : t -> int -> pcpu
(** Raises [Invalid_argument] on an out-of-range index. *)

val pcpu_id : pcpu -> int

val exclusive : pcpu -> Armvirt_engine.Sim.Resource.t
(** Capacity-1 resource serializing contexts that share the physical CPU
    (e.g. Xen's Dom0 and the idle domain). The paper pins each VCPU to a
    dedicated PCPU, so most experiments never contend on this. *)

(** {1 Interned labels} *)

type op
(** A priced step (["arm.save.GP Regs"], ["kvm_arm.host_dispatch"]):
    a free-form label, spent through {!spend}. *)

type marker
(** A counted label in {!Armvirt_obs.Accounting}'s grammar (exit and
    entry markers, ["<hyp>.<op>"] counters, switch and wire counters),
    counted through {!count}. The lint rule M1 checks the label handed
    to {!marker}; {!op} labels are not in that grammar and are not
    checked. *)

val op : t -> string -> op
(** [op t label] interns [label] in [t]'s counters. Interning the same
    label again returns an op on the same counter. Call it when the model
    is built, not per operation. *)

val marker : t -> string -> marker
(** As {!op}, for a counted label. *)

(** Each op and marker also carries its {!Armvirt_obs.Span.category},
    computed by {!Armvirt_obs.Span.of_label} the first time an observer
    sees it, never at intern time. *)

val spend : op -> int -> unit
(** [spend op cycles] advances the calling process by [cycles] and adds
    them to [op]'s counter and to the total counter ["cycles"]. Must run
    inside a simulation process. Raises [Invalid_argument] on negative
    [cycles]. *)

val count : marker -> unit
(** Increment [marker]'s counter without consuming time. *)

(** {1 Observers} *)

val observe :
  t -> (label:string -> cycles:int -> now:Armvirt_engine.Cycles.t -> unit) option -> unit
(** Installs (or clears) an observer invoked on every {!spend}, with the
    simulated time {e after} the operation. Used by
    {!Armvirt_stats.Trace} to reconstruct operation timelines without
    touching the hypervisor paths. *)

val observe_obs :
  t ->
  (label:string ->
  cat:Armvirt_obs.Span.category ->
  cycles:int ->
  now:Armvirt_engine.Cycles.t ->
  unit)
  option ->
  unit
(** A second, independent spend observer for the structured tracing
    layer, so it can coexist with a user-installed {!Armvirt_stats.Trace}
    observer. It also receives the op's category. *)

val observe_count :
  t ->
  (label:string ->
  cat:Armvirt_obs.Span.category ->
  now:Armvirt_engine.Cycles.t ->
  unit)
  option ->
  unit
(** Installs (or clears) an observer invoked on every {!count} with the
    marker's label, its category and the machine's current simulated
    time. The accounting layer turns exit/entry marker counts into
    instant trace events through this slot. Unlike the spend observers
    it reads the machine clock directly, so it is safe from outside a
    simulation process. *)

val set_create_hook : (t -> unit) option -> unit
(** Installs (or clears) a process-wide hook invoked on every {!create}
    with the new machine. Lets a tracing session instrument machines that
    experiments construct internally. Not domain-scoped: set it before
    spawning runner domains and clear it after. *)

val freq_ghz : t -> float

val elapsed_us : t -> Armvirt_engine.Cycles.t -> float
(** Convert cycles to microseconds at this machine's clock frequency. *)
