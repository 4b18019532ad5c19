(** Whole-repo lint runs. *)

val scan_files : root:string -> string list
(** All [.ml]/[.mli] files under [lib/], [bin/], [bench/], [examples/]
    and [test/] below [root], as sorted '/'-separated relative paths.
    [_*] and dot directories are skipped. *)

val find_root : unit -> string
(** Locate the repo root from the current directory, stripping any
    [_build] components first (so it works from dune test and rule
    sandboxes), then walking up to the nearest [dune-project]. *)

val lint_tree : ?rules:Rules.id list -> root:string -> unit -> Report.t
(** Run the per-file passes over every scanned file under [lib/],
    [bin/] and [bench/] and S1 over all of them. The report is a
    function of the tree: two runs over the same files render the same
    bytes. Unparseable files are reported on stderr and skipped. *)

val explain : string -> int
(** Print the long-form rationale for a rule id ([--explain]). Returns
    the exit code: 0 on a known rule, 2 otherwise. *)

val run :
  ?format:Report.format ->
  ?only:string list ->
  ?skip:string list ->
  ?root:string ->
  ?out:string ->
  unit ->
  int
(** The [armvirt lint] entry point. [only] and [skip] are
    comma-separable rule-id lists ([--rules]/[--skip-rules]).
    [out] of [None] or ["-"] writes to stdout. Returns the exit code:
    0 clean, 1 any finding, 2 usage error. A finding is accepted only by
    a [lint:] marker in its source file (see {!Suppress}). *)
