(** A built program run as a child process, for tests that check what a
    command prints and how it exits. *)

val run :
  ?env:string array ->
  ?time_bound_s:float ->
  string ->
  string list ->
  int * string * string
(** [run prog args] runs [prog] with [args] (stdin inherited) and returns
    its exit code, stdout and stderr. [env] replaces the environment.
    Fails the current test if the child is killed or runs past
    [time_bound_s] (default 20 s), killing it first. *)

val contains : string -> string -> bool
(** [contains s needle]: [needle] occurs in [s]. *)
