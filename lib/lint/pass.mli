(** Shared infrastructure for registered analysis passes: a pass
    declares the rule ids it implements and a [run] function over one
    parsed compilation unit; the engine filters and suppresses. *)

type finding = {
  rule : Rules.id;
  file : string;
  line : int;
  col : int;
  message : string;
}

val compare_finding : finding -> finding -> int
(** By (line, col), then rule id. *)

type ast = Impl of Parsetree.structure | Intf of Parsetree.signature

type ctx = {
  relpath : string;
  active : Rules.id list;  (** requested minus file-wide-disabled *)
  mutable raw : finding list;  (** candidates; suppression applied later *)
}

val emit : ctx -> Rules.id -> Location.t -> string -> unit
(** Record a candidate finding when the rule is active for the file. *)

type t = {
  name : string;  (** stable identifier in reports, e.g. ["units"] *)
  rules : Rules.id list;  (** every id this pass can emit *)
  run : ctx -> ast -> unit;
}

val relevant : t -> ctx -> bool
(** Whether at least one of the pass's rules is active for the file. *)

(** {1 Helpers shared by several passes} *)

val flatten : Longident.t -> string list
(** [Longident.flatten], or [[]] for a functor application. *)

val dotted : string list -> string

val alloc_root : Parsetree.expression -> Parsetree.expression
(** Unwrap type constraints, let-ins and sequences down to the
    expression that allocates. *)

val is_mutable_alloc : Parsetree.expression -> bool
(** Whether the expression allocates process-visible mutable state
    ([ref], [Hashtbl.create], [Atomic.make]) when bound at toplevel. *)
