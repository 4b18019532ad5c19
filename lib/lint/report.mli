(** Rendering lint results for humans and machines.

    Schema v3: the JSON report carries one row per registered pass
    ([passes]: its rules and finding count) and the findings. Every
    field is a function of the tree and the arguments, so identical
    inputs render byte-identical text, CSV and JSON. *)

type format = Text | Csv | Json

type t = {
  root : string;
  files_scanned : int;
  suppressed : int;
  findings : Engine.finding list;  (** sorted by (file, line, col, rule) *)
}

val render : format -> t -> string
(** The pass rows list every pass of {!Engine.passes}, in order, with
    the findings of its rules. The JSON schema is documented in
    [report.ml] and in the README. *)
