(** Rendering of experiment results side by side with the paper's
    published numbers, in the spirit of the original tables. All output
    is plain text suitable for a terminal or EXPERIMENTS.md. *)

val pp_table2 : Format.formatter -> Experiment.table2_row list -> unit
(** Table II layout: per microbenchmark, measured vs paper for the four
    hypervisor/architecture combinations. *)

val pp_table3 : Format.formatter -> (string * int * int) list -> unit

val pp_table5 :
  Format.formatter ->
  (string * Armvirt_workloads.Netperf.rr_result) list ->
  unit

val pp_fig4 : Format.formatter -> Experiment.fig4_row list -> unit

val pp_vhe : Format.formatter -> Experiment.vhe_row list -> unit

val pp_vhe_app :
  Format.formatter -> (string * float * float) list -> unit

val pp_irqdist :
  Format.formatter -> (string * Experiment.irqdist_row list) list -> unit

val pp_pinning : Format.formatter -> (string * int * int) list -> unit

val pp_zerocopy : Format.formatter -> Experiment.zerocopy_row list -> unit

val pp_oversub :
  Format.formatter ->
  (string * Armvirt_workloads.Oversub.result list) list ->
  unit

val pp_disk :
  Format.formatter -> Armvirt_workloads.Diskbench.result list -> unit

val pp_tail :
  Format.formatter ->
  (float * Armvirt_workloads.Tail_latency.result list) list ->
  unit

val pp_coldstart :
  Format.formatter -> Armvirt_workloads.Coldstart.result list -> unit

val pp_lrs :
  Format.formatter ->
  (string * Armvirt_workloads.Lr_sensitivity.result list) list ->
  unit

val pp_gicv3 :
  Format.formatter -> (string * (string * int) list) list -> unit

val pp_ticks :
  Format.formatter -> Armvirt_workloads.Timer_tick.result list -> unit

val pp_linkspeed :
  Format.formatter -> Experiment.linkspeed_row list -> unit

val pp_isolation :
  Format.formatter -> Armvirt_workloads.Isolation.result list -> unit

val pp_multiqueue :
  Format.formatter -> (string * (int * float) list) list -> unit

val pp_tracereplay :
  Format.formatter ->
  (string * Armvirt_workloads.Trace_replay.result) list ->
  unit

val pp_twodwalk :
  Format.formatter -> Experiment.twodwalk_row list -> unit

val pp_vapic :
  Format.formatter -> (string * (string * int) list) list -> unit

val pp_vapic_apps :
  Format.formatter -> (string * float * float) list -> unit

val pp_crosscall :
  Format.formatter -> Armvirt_workloads.Crosscall.result list -> unit

val pp_guestops :
  Format.formatter ->
  (string * Armvirt_workloads.Guest_ops.row list) list ->
  unit

val pp_lazyswitch :
  Format.formatter -> (string * (string * int) list) list -> unit

val pp_consolidation :
  Format.formatter -> Experiment.consolidation_row list -> unit

val pp_structural :
  Format.formatter -> Experiment.structural_row list -> unit

val pp_fig4_chart : Format.formatter -> Experiment.fig4_row list -> unit
(** ASCII bar rendering of Figure 4 (ARM columns), for terminals. *)

val pp_migrate :
  Format.formatter ->
  (string * Armvirt_workloads.Migration.result) list ->
  unit
(** Live-migration summary: one row per configuration with round count,
    total time, blackout, pages re-sent and the worst-round RR p99
    degradation. *)

val pp_migrate_rounds :
  Format.formatter ->
  (string * Armvirt_workloads.Migration.result) list ->
  unit
(** The per-round detail behind {!pp_migrate}: pages shipped, round
    length and request p99 for every pre-copy round. *)

(** {1 Generic machine-readable tables}

    Shared emitters for tabular artifacts that are data rather than
    paper-vs-measured prose — [lib/explore]'s sweep reports render
    through these. *)

val pp_csv_table :
  Format.formatter -> header:string list -> string list list -> unit
(** RFC 4180 CSV: one header row then one row per entry; fields holding
    separators, quotes or newlines are quoted with doubled quotes. *)

val pp_markdown_table :
  Format.formatter -> header:string list -> string list list -> unit
(** A GitHub-flavoured markdown table (pipes in cells escaped). *)

(** {1 The experiment registry}

    The one list of regenerable artifacts: [armvirt list], [run],
    [trace] and [stat] and [bench/main.exe] all read it. Adding an
    experiment is its computation in {!Experiment}, its printer here and
    one entry below; nothing in [bin/] or [bench/] changes. *)

type entry = {
  id : string;  (** What [armvirt run] accepts, e.g. ["table2"]. *)
  doc : string;  (** The one-line description [armvirt list] prints. *)
  run : Format.formatter -> unit;
      (** Computes the artifact and prints it: the bytes [armvirt run]
          writes. Nothing is computed until [run] is called. *)
}

val registry : entry list
(** Every artifact, in [armvirt list] order. *)

val find : string -> entry option
