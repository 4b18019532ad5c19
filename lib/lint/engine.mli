(** The multi-pass static-analysis engine.

    Passes are registered in {!passes}; a per-file pass declares the
    rule ids it can emit (see {!Pass.t}) and is skipped when none of
    them apply to the file being linted, so path scoping also scopes
    cost. Each file is parsed once ({!parse}) and the same tree feeds
    the per-file passes ({!lint_file}) and the whole-tree pass
    ({!lint_exports}). *)

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
}

exception Parse_error of string

val compare_finding : finding -> finding -> int

val passes : (string * Rules.id list) list
(** Every registered pass with the rules it can emit, in report order:
    the per-file passes ["determinism"] (R1-R7), ["units"] (U1/U2) and
    ["capture"] (D1), then the whole-tree pass ["exports"] (S1). *)

val pass_of_rule : Rules.id -> string
(** Name of the pass that implements a rule. *)

type source
(** One parsed compilation unit with its suppression directives. *)

val parse : relpath:string -> string -> source
(** Parse a source text as an [.ml] or [.mli], chosen by the extension
    of [relpath]. Raises {!Parse_error} on syntax errors. *)

val lint_file : ?rules:Rules.id list -> source -> result
(** Run every per-file pass with at least one rule in [rules] (default:
    all) that {!Rules.applies} to the file. *)

val lint_exports : source list -> result
(** Run the whole-tree pass ["exports"] (S1): the [val]s of every
    [lib/**/*.mli] among [sources] against the references of every
    [.ml] among them (see [exports.ml] for what counts as a caller).
    Findings sit on the [.mli] line of the [val] and obey that file's
    suppression directives. *)
