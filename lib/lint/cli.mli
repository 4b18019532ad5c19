(** Cmdliner plumbing for [armvirt-lint] (bin/armvirt_lint.ml), the
    linter's own executable. *)

val term : int Cmdliner.Term.t
(** Evaluates to the process exit code (see {!Driver.run}). *)

val doc : string

val man : Cmdliner.Manpage.block list
