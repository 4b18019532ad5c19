(** Suppression-comment parsing.

    A directive is a comment whose text starts with [lint:]; a marker
    anywhere else, a string literal included, is not one. The forms:

    - [(* lint: sorted *)] — marks an audited R3 site whose iteration order
      provably cannot escape (commutative fold, or sorted downstream).
    - [(* lint: unit <u> <reason> *)] — marks an audited U1/U2 site: the
      author asserts the value is in unit [<u>] and the apparent mix is
      deliberate (e.g. a checked reinterpretation).
    - [(* lint: allow R6 <reason> *)] — marks an audited site for any rule.
    - [(* lint: disable R2 R7 *)] — disables the listed rules file-wide.

    Site directives apply to the line their comment starts on and to
    the line directly below, so they can trail the offending expression
    or precede it. *)

type t

val of_comments : (string * Location.t) list -> t
(** The directives among a file's comments, as [Lexer.comments]
    returns them after the file is parsed. *)

val file_disabled : t -> Rules.id -> bool

val allowed : t -> Rules.id -> line:int -> bool
