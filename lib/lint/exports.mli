(** S1, the whole-tree pass: every [val] of a [lib/**/*.mli] needs a
    caller in another unit (see [exports.ml] for what counts as one). *)

val name : string
(** ["exports"], the pass name in reports. *)

val run : (string * Pass.ast) list -> Pass.finding list
(** [run units] checks (repo-relative path, parsed tree) pairs: the
    exports of every lib/ interface among them against the references
    of every implementation among them. Findings are unsuppressed. *)
