(** Whole-repo lint runs. *)

val scan_files : root:string -> string list
(** All [.ml]/[.mli] files under [lib/], [bin/], [bench/], [examples/]
    and [test/] below [root], as sorted '/'-separated relative paths.
    [_*] and dot directories are skipped. *)

val find_root : unit -> string
(** Locate the repo root from the current directory, stripping any
    [_build] components first (so it works from dune test and rule
    sandboxes), then walking up to the nearest [dune-project]. *)

val lint_tree :
  ?rules:Rules.id list -> ?baseline:Baseline.t -> root:string -> unit -> Report.t
(** Run the per-file passes over every scanned file under [lib/],
    [bin/] and [bench/] and S1 over all of them, then split findings
    into fresh vs grandfathered against [baseline] (default: empty, i.e.
    everything fresh). Unparseable files are reported on stderr and
    skipped. *)

val explain : string -> int
(** Print the long-form rationale for a rule id ([--explain]). Returns
    the exit code: 0 on a known rule, 2 otherwise. *)

val run :
  ?format:Report.format ->
  ?only:string list ->
  ?skip:string list ->
  ?root:string ->
  ?out:string ->
  ?baseline:string ->
  ?update_baseline:bool ->
  unit ->
  int
(** The [armvirt lint] entry point. [only] and [skip] are
    comma-separable rule-id lists ([--rules]/[--skip-rules]).
    [out] of [None] or ["-"] writes to stdout. [baseline] names the
    ratchet file ([--baseline]), resolved against the cwd then the repo
    root; with [update_baseline] the current findings are written back to
    it instead of reported. Returns the exit code: 0 clean (grandfathered
    findings allowed), 1 fresh findings or stale baseline residue, 2
    usage error. *)
