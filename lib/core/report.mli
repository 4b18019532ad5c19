(** Every table the CLI prints, as an {!Armvirt_obs.Table.t}: the paper's
    artifacts with the published numbers beside the measured ones, and
    the tables of [migrate], [fleet] and [cluster]. A builder formats its
    experiment's results into cells; [Table] renders them as text
    ([armvirt run]), markdown ([armvirt report], [--format md]) or CSV
    ([--format csv]). *)

(** {1 The experiment registry}

    The one list of regenerable artifacts: [armvirt list], [run]
    (every entry, in this order, when given no ids), [trace] and [stat]
    all read it. Adding an experiment is its computation in
    {!Experiment}, its table builder here and one entry below; nothing
    in [bin/] changes. *)

type entry = {
  id : string;  (** What [armvirt run] accepts, e.g. ["table2"]. *)
  doc : string;  (** The one-line description [armvirt list] prints. *)
  tables : unit -> Armvirt_obs.Table.t list;
      (** Computes the artifact: the tables [armvirt run] prints as
          text. Nothing is computed until it is called. *)
}

val registry : entry list
(** Every artifact, in [armvirt list] order. *)

val find : string -> entry option

val run : Format.formatter -> entry -> unit
(** Computes an entry and prints its tables as text. *)

val markdown : unit -> string
(** The markdown document [armvirt report] writes: a preamble, then
    each table [run table2 table3 table5 fig4 vhe] prints, under its
    title as a heading and followed by its notes. *)

(** {1 Single artifacts} *)

val table2 : Experiment.table2_row list -> Armvirt_obs.Table.t

val table5 :
  (string * Armvirt_workloads.Netperf.rr_result) list -> Armvirt_obs.Table.t

val structural : Experiment.structural_row list -> Armvirt_obs.Table.t

(** {1 The CLI's tables} *)

val migrate :
  (string * Armvirt_workloads.Migration.result) list -> Armvirt_obs.Table.t
(** Live-migration summary: one row per configuration with round count,
    total time, blackout, pages re-sent and the worst-round RR p99
    degradation, under the plan. *)

val migrate_rounds :
  (string * Armvirt_workloads.Migration.result) list -> Armvirt_obs.Table.t
(** The per-round detail behind {!migrate}: pages shipped, round length
    and request p99 for every pre-copy round. *)

val migrate_fields :
  (string * Armvirt_workloads.Migration.result) list -> Armvirt_obs.Table.t
(** Every result field, one row per configuration: [migrate --format]. *)

val fleet_boot_storm :
  (string * Armvirt_fleet.Scenario.boot_storm_result) list ->
  Armvirt_obs.Table.t

val fleet_churn :
  (string * Armvirt_fleet.Scenario.churn_result) list -> Armvirt_obs.Table.t

val fleet_noisy :
  (string * int * Armvirt_fleet.Scenario.noisy_result) list ->
  Armvirt_obs.Table.t
(** One row per configuration and fleet size. *)

val cluster_matrix :
  (string * Armvirt_workloads.Cluster.matrix_result) list ->
  Armvirt_obs.Table.t
(** One row per configuration and VM pair. *)

val cluster_chain :
  (string * Armvirt_workloads.Cluster.chain_result) list ->
  Armvirt_obs.Table.t
(** One column per hop of the first configuration's chain. *)

val cluster_loadgen :
  (string * Armvirt_workloads.Cluster.loadgen_result) list ->
  Armvirt_obs.Table.t
(** One row per configuration and offered load. *)
