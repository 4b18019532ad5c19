(** Guest stage-1 translation: the VM's own page tables, walked for
    real through stage-2.

    Section II: with Stage-2 enabled, ARM defines three address spaces —
    VA, IPA, PA. What it does not spell out is the cost structure: the
    guest's stage-1 page tables live in {e guest} memory, so on a TLB
    miss the hardware walker must translate every stage-1 table pointer
    through stage-2 before it can read the descriptor. A 4-level guest
    walk under a 4-level stage-2 becomes a 24-access two-dimensional
    walk — nested paging's constant tax, and the reason "CPU and memory
    virtualization has been highly optimized directly in hardware"
    still is not free.

    This module implements the guest's 4-level radix table and a walker
    that really performs the 2D walk against an
    {!Stage2} table, counting every memory access. *)

type t
(** A guest address space: a 4-level, 9-bit-per-level radix tree over
    48-bit virtual addresses, with its table nodes allocated in guest
    (IPA) pages. *)

val levels : int
(** 4. *)

val create : table_base_ipa_page:int -> t
(** Table nodes are allocated from a bump allocator starting at
    [table_base_ipa_page] — they occupy guest memory like real page
    tables do. *)

val map : t -> va_page:int -> ipa_page:int -> unit
(** Installs a 4 KB translation, allocating intermediate table nodes as
    needed. Raises [Invalid_argument] on negative frames. *)

exception Translation_fault of Addr.va

val table_pages : t -> int list
(** IPA page frames holding this address space's table nodes — the
    pages a hypervisor must back before the guest can even walk. *)

val walk_2d : t -> Stage2.t -> Addr.va -> Addr.pa * int
(** The hardware's nested walk: translate the VA through stage-1 while
    translating every stage-1 table access through [stage2], returning
    the final machine address and the number of memory accesses
    performed (24 for a full 4-level/4-level miss). Raises
    {!Translation_fault} or {!Stage2.Stage2_fault}. *)

val native_walk_accesses : int
(** 4 — the same walk on bare metal. *)
