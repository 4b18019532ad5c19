(** Cmdliner plumbing for the [armvirt lint] subcommand. *)

val term : int Cmdliner.Term.t
(** Evaluates to the process exit code (see {!Driver.run}). *)

val doc : string

val man : Cmdliner.Manpage.block list
