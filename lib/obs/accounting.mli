(** kvm_stat-style exit accounting from a machine's own counters.

    The hypervisor models count every VM exit and re-entry through a
    zero-cost [Armvirt_arch.Machine.count] of a typed {!Marker.t}. This
    module turns one machine's counts into what [kvm_stat] /
    [perf kvm stat] would show on real hardware: per-exit-reason counts,
    log2 exit-latency histograms keyed by (hypervisor, reason, PCPU),
    and guest-time vs hypervisor-time cycle attribution.

    Counts are the machine's counter values, so they are exact at any
    run length. Latency needs the order of events: a {!pairing} is fed
    every counted marker as it is counted, and pairs each exit with the
    next entry on the same (hypervisor, PCPU) — entry markers fire
    {e after} the restore path, so the latency covers the full world
    switch, like the TSC delta between [kvm_exit] and [kvm_entry]
    tracepoints.

    Everything here is deterministic: no wall-clock, no randomness, no
    hash order in any result. *)

(** {1 Log2 histograms} *)

type hist = {
  count : int;
  sum : int;
  min : int;  (** 0 when [count = 0]. *)
  max : int;
  buckets : (int * int) list;
      (** [(upper_bound, count)] for non-empty log2 buckets, ascending;
          a sample [v] lands in the smallest power-of-two bound >= [v]. *)
}

val mean : hist -> float

(** {1 Lane attribution} *)

type lane = Guest | Hypervisor

val lane_to_string : lane -> string

type spent = {
  label : string;
  cat : Span.category;
  lane : lane;
  cycles : int;  (** Every cycle the op spent, 0 if it was spent for 0. *)
}
(** One op's total, with the category and lane declared where it was
    interned ([Armvirt_arch.Machine.op_cycles]). The lane says who
    executes the op: [Guest] for work the VM itself runs (its packet
    processing, its own interrupt completion, a native server), and
    [Hypervisor] for world-switch costs, hypervisor dispatch and the
    host's backend and I/O paths. *)

(** {1 Exit latency} *)

type pairing
(** One machine's open exits and latency histograms. *)

val pairing : unit -> pairing

val pair : pairing -> Marker.t -> ts:int -> unit
(** Feed one counted marker at simulated time [ts], in counting order.
    An exit opens a pending exit on its (hypervisor, PCPU); a second
    exit before any entry replaces it (the first never re-entered, e.g.
    the VCPU blocked, so it gives no sample). An entry closes the
    pending exit and adds [ts - exit_ts] to that exit's reason; an
    entry with no pending exit adds no sample. Other markers are
    ignored. *)

(** {1 Rows} *)

type vm_stats = {
  cell : string;  (** Cell label. *)
  machine : string;  (** ["m0"], ["m1"], ... in the cell's build order. *)
  hyp : string;  (** Marker prefix, e.g. ["kvm_arm"]; ["-"] if none. *)
  exits : (string * int * hist) list;
      (** [(reason, exit_count, latency_hist)]; [latency_hist.count] can
          be below [exit_count] when an exit never re-entered. The list
          is sorted by descending count, ties by reason name. *)
  exits_per_pcpu : (int * (string * int * hist) list) list;
      (** Same, broken out per PCPU, ascending PCPU id. *)
  entries : int;
  entries_per_domain : (int * int) list;
      (** [(domid, entries)] from entry markers carrying a domid,
          ascending domid; empty when no marker named a domain. Fleet
          schedulers tag every entry, so this is the per-guest share of
          world switches on a consolidated host. *)
  ops : (string * int) list;
      (** Counts of the other markers, by {!Marker.name}, sorted. *)
  guest_cycles : int;
  hyp_cycles : int;
}

val rows :
  cell:string ->
  machine:string ->
  markers:(Marker.t * int) list ->
  ops:spent list ->
  pairing ->
  vm_stats list
(** One machine's rows: one per marker prefix ({!Marker.hyp}), sorted.
    [markers] are the machine's counted markers with their counts, each
    once; [ops] its priced ops, whose cycles are summed by their lanes
    and reported on the first row (in practice one machine hosts one
    hypervisor). A machine with no
    markers gets one ["-"] row if it spent any cycles, none otherwise. *)

type t = {
  vms : vm_stats list;
  total_guest : int;
  total_hyp : int;
  total_exits : int;
}

val of_rows : vm_stats list -> t
(** The rows, in the given order, with their totals. *)
