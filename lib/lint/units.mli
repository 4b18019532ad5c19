(** The units pass: U1/U2, units of measure inferred from identifier
    suffixes. *)

val pass : Pass.t
