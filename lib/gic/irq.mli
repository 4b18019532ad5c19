(** ARM GIC interrupt identifiers and their classes. *)

type t = int
(** 0–1019. *)

type kind =
  | Sgi  (** 0–15: software-generated (IPIs). *)
  | Ppi  (** 16–31: per-CPU private (e.g. the virtual timer). *)
  | Spi  (** 32–1019: shared peripheral (e.g. the NIC). *)

val kind : t -> kind
(** Raises [Invalid_argument] outside 0–1019. *)

val is_valid : t -> bool

val virtual_timer : t
(** PPI 27, the ARM virtual timer interrupt. *)

val maintenance : t
(** PPI 25, the GIC maintenance interrupt used when list registers
    overflow. *)
