(** kvm_stat-style exit accounting over recorded traces.

    The hypervisor models mark every VM exit and re-entry with a
    zero-cost {!Armvirt_arch.Machine.count} of a marker interned when the
    model is built, whose label follows a fixed grammar (below). A tracing session turns those counts into instant
    events on the machine's ["cpu"] track; this module reduces a list of
    exported trace processes into what [kvm_stat] / [perf kvm stat]
    would show on real hardware: per-exit-reason counters, log2 exit
    latency histograms keyed by (cell, machine, hypervisor, PCPU), and
    guest-time vs hypervisor-time cycle attribution.

    {1 Marker label grammar}

    - exit:  ["<hyp>.exit/<reason>/p<pcpu>"], e.g. ["kvm_arm.exit/hvc/p4"]
    - entry: ["<hyp>.entry/p<pcpu>"] or ["<hyp>.entry/p<pcpu>/d<domid>"]
    - any other counted label containing a ['.'] is an operation count,
      e.g. ["kvm_arm.vipi"].

    [<reason>] is an {!Armvirt_arch.Esr.short_name} mnemonic. Exit
    latency is the span from an exit marker to the next entry marker on
    the same (machine, hypervisor, PCPU) — entry markers fire {e after}
    the restore path, so the latency covers the full world switch, like
    the TSC delta between [kvm_exit] and [kvm_entry] tracepoints.

    Everything here is pure: input is event lists, output is
    deterministically ordered; no wall-clock, no randomness. *)

type marker =
  | Exit of { hyp : string; reason : string; pcpu : int }
  | Entry of { hyp : string; pcpu : int; domid : int option }
  | Op of { hyp : string; op : string }

val parse_label : string -> marker option
(** Classify a counted label per the grammar above. [None] for labels
    with no ['.'] (e.g. the engine's ["spawn"] instants). *)

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

val lane_of_label : string -> lane
(** First-match substring rules, mirroring {!Span.of_label}: labels for
    work the VM itself executes (["vm_processing"], ["native_server"],
    anything containing ["guest"], hardware-assisted completion paths
    ["virq_complete"] / ["eoi_vapic"]) are [Guest]; every other priced
    label — world-switch costs, hypervisor dispatch, host backend and
    I/O paths — is [Hypervisor]. *)

(** {1 Reduction} *)

type vm_stats = {
  cell : string;  (** Cell label ([Export.process.name]). *)
  machine : string;  (** ["m0"], ["m1"], ... from the track prefix. *)
  hyp : string;  (** Marker prefix, e.g. ["kvm_arm"]; ["-"] if none. *)
  exits : (string * int * hist) list;
      (** [(reason, exit_count, latency_hist)]; [latency_hist.count] can
          be below [exit_count] when an exit never re-entered. The list
          is sorted by descending count, ties by reason name. *)
  exits_per_pcpu : (int * (string * int * hist) list) list;
      (** Same, broken out per PCPU, ascending PCPU id. *)
  entries : int;
  entries_per_domain : (int * int) list;
      (** [(domid, entries)] from entry markers carrying a [d<domid>]
          suffix, ascending domid; empty when no marker named a domain.
          Fleet schedulers tag every entry, so this is the per-guest
          share of world switches on a consolidated host. *)
  ops : (string * int) list;  (** Operation counts, sorted by name. *)
  guest_cycles : int;
  hyp_cycles : int;
}

type t = {
  vms : vm_stats list;  (** Input order: cells as recorded, machines by
                            ascending index, hypervisors sorted. *)
  total_guest : int;
  total_hyp : int;
  total_exits : int;
}

val of_processes : Export.process list -> t
(** Reduce exported trace processes. Only events on ["cpu"] tracks
    participate: instants are parsed as markers, complete spans feed the
    cycle-attribution lanes. Deterministic in the input order, so the
    result (and anything rendered from it) is byte-identical at any
    [--jobs] level, like the trace exporters. *)
