(** The one JSON reader and string escaper in [lib/].

    The JSON documents [lib/] emits ([armvirt.stat/v1], Chrome traces,
    the metric registry, lint reports and baselines) escape their
    strings through {!escape}; the documents read back ([stat --diff],
    [LINT_baseline.json]) go through {!parse}. No dependency on an
    external JSON library. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** A minimal strict parser: the whole input must be one value, with
    only whitespace around it. Errors name the byte offset. *)

val member : string -> t -> t option
(** [member key obj] is the value of [key] in object [obj]; [None] if
    absent or if [obj] is not an object. *)

val escape : string -> string
(** The body of a JSON string literal (without the surrounding quotes):
    quotes, backslashes and control characters escaped, every other
    byte passed through. *)
