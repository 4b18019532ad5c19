(** The capture pass: D1, closures crossing [Runner.map] that capture
    mutable toplevel state. *)

val pass : Pass.t
