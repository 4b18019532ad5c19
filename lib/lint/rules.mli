(** Rule identities, severities and path scoping for the static-analysis
    framework.

    Rules come in families, each implemented by one registered pass
    (see {!Engine.passes}):

    - [R1]-[R7]: the determinism invariants — bit-for-bit identical
      reports, traces and statistics for a given seed, regardless of
      host, wall-clock or [--jobs] level.
    - [U1]/[U2]: units-of-measure inference over identifier suffixes —
      the cost arithmetic composing cycles, microseconds, bytes and
      Gbps must never mix dimensions silently.
    - [D1]: cross-domain capture — closures fanned out through
      [Runner.map] must not touch mutable toplevel state.
    - [S1]: every export has a caller — a [val] of a [lib/**/*.mli]
      that no other unit references fails (the one whole-tree rule). *)

type id = R1 | R2 | R3 | R4 | R5 | R6 | R7 | U1 | U2 | D1 | S1

type severity = Error | Warning

val all : id list

val to_string : id -> string

val of_string : string -> id option
(** Case-insensitive; returns [None] for unknown ids. *)

val severity : id -> severity

val severity_to_string : severity -> string

val summary : id -> string
(** One-line description of what the rule forbids. *)

val hint : id -> string
(** How to fix a finding. *)

val explain : id -> string
(** The long-form rationale shown by [armvirt-lint --explain RULE]:
    what the rule flags, why the invariant matters, and the audited
    suppression form. *)

val applies : relpath:string -> id -> bool
(** Whether a rule is in scope for a '/'-separated repo-relative path. *)
