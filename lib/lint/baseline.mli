(** The ratcheting baseline: [LINT_baseline.json].

    The baseline grandfathers known findings per (file, rule) count so
    a new pass can land while the gate keeps biting on anything it did
    not already know about. The ratchet only turns one way:

    - a finding beyond its (file, rule) quota is {e fresh} → the run
      fails;
    - findings within the quota are {e grandfathered} → rendered as
      warnings, exit stays clean;
    - a quota the tree no longer uses up is {e stale} → the run fails
      until the shrunken baseline is committed ([--update-baseline]
      writes it).

    Counts, not line numbers, key the ratchet so unrelated edits don't
    churn the committed file. *)

type entry = { file : string; rule : Rules.id; count : int }

type t = entry list
(** Sorted by (file, rule). *)

val empty : t

val of_findings : Pass.finding list -> t
(** Collapse findings into (file, rule) counts — what
    [--update-baseline] writes. *)

type verdict = {
  fresh : Pass.finding list;
  grandfathered : Pass.finding list;
  stale : entry list;  (** residual counts the tree no longer produces *)
}

val check : t -> Pass.finding list -> verdict
(** Deterministic: findings are processed in (file, line, col, rule)
    order, filling each (file, rule) quota first-come. *)

val render : t -> string
(** Stable JSON, byte-identical for equal inputs. *)

val parse : string -> (t, string) result

val load : string -> (t, string) result
