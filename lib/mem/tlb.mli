(** A fully associative TLB caching stage-2 translations, with exact LRU
    replacement.

    Recency: every {!lookup} hit and every {!insert} (of a new or a
    resident page) makes that page the most recently used; a miss changes
    nothing. When an insert of a new page finds the TLB full, it evicts
    the least recently used page. Each operation costs O(1) host time
    (at most three hash-table operations and a few pointer updates on a
    recency list), except {!invalidate_all}, which clears the table in
    O(capacity).

    The interesting property for the paper is not hit rate modelling but
    the *invalidation protocol*: removing a grant mapping requires every
    CPU's TLB to drop the entry. ARM broadcasts the invalidate in
    hardware; x86 must interrupt every CPU (the shootdown cost in
    {!Armvirt_arch.Cost_model.x86} that
    [Xen_x86.zero_copy_break_even_bytes] prices). This module supplies
    the per-CPU state those protocols manipulate. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val lookup : t -> ipa_page:int -> int option
(** Cached pa_page; a hit makes the page the most recently used. *)

val insert : t -> ipa_page:int -> pa_page:int -> unit
(** Installs or replaces the translation and makes the page the most
    recently used. Inserting a new page into a full TLB first evicts the
    least recently used entry; replacing a resident one evicts nothing. *)

val entries : t -> int
val hits : t -> int
val misses : t -> int
(** Lifetime counters over {!lookup}. *)
