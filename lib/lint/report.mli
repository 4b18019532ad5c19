(** Rendering lint results for humans and machines.

    Schema v2: the JSON report carries per-pass timing ([passes]), the
    baseline verdict counts, and a [status] per finding (fresh vs
    grandfathered). [duration_ms] is the only non-deterministic field;
    byte-compared goldens zero it out. *)

type format = Text | Csv | Json

type status = Fresh | Grandfathered

type pass_stat = {
  pass : string;
  pass_rules : Rules.id list;
  duration_ms : float;
  pass_findings : int;
}

type t = {
  root : string;
  files_scanned : int;
  suppressed : int;
  passes : pass_stat list;
  findings : (Engine.finding * status) list;
      (** sorted by (file, line, col, rule) *)
  stale : Baseline.entry list;
}

val fresh : t -> Engine.finding list

val clean : t -> bool
(** No fresh findings and no stale baseline residue. *)

val of_findings :
  ?passes:pass_stat list ->
  root:string ->
  files_scanned:int ->
  suppressed:int ->
  Engine.finding list ->
  t
(** All findings fresh, empty stale list — the no-baseline case. *)

val render : format -> t -> string
(** Deterministic apart from [duration_ms]: identical inputs produce
    byte-identical output. The JSON schema is documented in [report.ml]
    and in the README. *)
