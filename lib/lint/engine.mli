(** The multi-pass static-analysis engine over one compilation unit.

    Passes are registered in {!passes}; each declares the rule ids it
    can emit (see {!Pass.t}) and is skipped when none of them apply to
    the file being linted, so path scoping also scopes cost. *)

type finding = Pass.finding = {
  rule : Rules.id;
  file : string;  (** repo-relative path, '/'-separated *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  message : string;
}

type result = {
  findings : finding list;  (** unsuppressed, sorted by (line, col, rule) *)
  suppressed : int;  (** candidate findings silenced by directives *)
  timings : (string * float) list;
      (** [(pass name, seconds)] for each pass that ran on this file, in
          registration order. Diagnostic only — never byte-compared. *)
}

exception Parse_error of string

val compare_finding : finding -> finding -> int

val passes : Pass.t list
(** The registered passes, in report order: ["determinism"] (R1-R7),
    ["units"] (U1/U2), ["capture"] (D1). *)

val pass_of_rule : Rules.id -> string
(** Name of the pass that implements a rule. *)

val lint_source :
  ?rules:Rules.id list ->
  ?clock:(unit -> float) ->
  relpath:string ->
  string ->
  result
(** Parse [source] (an [.ml] or [.mli], chosen by the extension of
    [relpath]) and run every registered pass with at least one rule in
    [rules] (default: all) that {!Rules.applies} to [relpath]. [clock]
    (default: host CPU time) feeds the per-pass timings. Raises
    {!Parse_error} on syntax errors. *)
