(** Stage-2 translation tables: the hypervisor-controlled mapping from a
    VM's intermediate physical addresses to machine addresses
    (section II). Page-granular; used by the hypervisor models for VM
    memory setup and by the I/O models to decide whether a backend can
    reach guest buffers (KVM's host can, Xen's Dom0 cannot without a
    grant).

    Representation: the level-3 tables of a 4 KB-granule stage-2 walk.
    Each leaf holds 512 PTEs (9 index bits, as
    {!Stage1.bits_per_level}), each an immediate int, so a mapping
    costs no allocation of its own. Leaves are found through a small
    int-keyed directory that remembers the leaf used last: a run of
    accesses within one 2 MiB region finds its leaf with one
    comparison. Memory grows with the number of 2 MiB regions touched,
    not with the size of a page number. *)

type perm = Read_only | Read_write

type fault =
  | Unmapped of Addr.ipa  (** No translation — a stage-2 abort. *)
  | Permission of Addr.ipa  (** Write to a read-only page. *)

exception Stage2_fault of fault

type t

val create : unit -> t
(** An empty table; no leaf is allocated until the first {!map}. *)

val map : t -> ipa_page:int -> pa_page:int -> perm -> unit
(** Installs or replaces the translation for one guest page frame: one
    array store, plus a 512-entry leaf the first time its 2 MiB region
    is mapped. Raises [Invalid_argument] on a negative frame, or a
    [pa_page] above [max_int lsr 1], which a PTE cannot hold. *)

val unmap : t -> ipa_page:int -> unit
(** Removing an absent mapping is a no-op. One array store; an emptied
    leaf is kept. *)

val translate : t -> Addr.ipa -> Addr.pa
(** Raises {!Stage2_fault} [(Unmapped _)] when no mapping exists. Offsets
    within the page are preserved. This, {!translate_write},
    {!translate_opt}, {!mapped} and {!permission} are one leaf lookup
    and one array read each, allocating nothing beyond the result. *)

val translate_write : t -> Addr.ipa -> Addr.pa
(** Like {!translate} but also raises {!Stage2_fault} [(Permission _)]
    for read-only pages. *)

val translate_opt : t -> Addr.ipa -> Addr.pa option
(** [Some (translate t ipa)] when the page is mapped, [None] when it is
    not; never raises. *)

val mapped : t -> ipa_page:int -> bool

val permission : t -> ipa_page:int -> perm option
(** The two [Some] values are preallocated. *)

val mapping_count : t -> int
(** Kept as a count: O(1). *)

val iter : t -> (ipa_page:int -> pa_page:int -> perm -> unit) -> unit
(** Visits every mapping in ascending [ipa_page] order, as the table
    stood when [iter] was called: it copies the leaves first, so the
    callback may map and unmap. O(leaves x 512), no sort of pages. *)

val pp_fault : Format.formatter -> fault -> unit
