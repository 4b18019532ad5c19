(** The determinism pass: rules R1-R7. *)

val pass : Pass.t
