(** Stage-2 translation tables: the hypervisor-controlled mapping from a
    VM's intermediate physical addresses to machine addresses
    (section II). Page-granular; used by the hypervisor models for VM
    memory setup and by the I/O models to decide whether a backend can
    reach guest buffers (KVM's host can, Xen's Dom0 cannot without a
    grant). *)

type perm = Read_only | Read_write

type fault =
  | Unmapped of Addr.ipa  (** No translation — a stage-2 abort. *)
  | Permission of Addr.ipa  (** Write to a read-only page. *)

exception Stage2_fault of fault

type t

val create : unit -> t

val map : t -> ipa_page:int -> pa_page:int -> perm -> unit
(** Installs or replaces the translation for one guest page frame. *)

val unmap : t -> ipa_page:int -> unit
(** Removing an absent mapping is a no-op. *)

val translate : t -> Addr.ipa -> Addr.pa
(** Raises {!Stage2_fault} [(Unmapped _)] when no mapping exists. Offsets
    within the page are preserved. *)

val translate_write : t -> Addr.ipa -> Addr.pa
(** Like {!translate} but also raises {!Stage2_fault} [(Permission _)]
    for read-only pages. *)

val translate_opt : t -> Addr.ipa -> Addr.pa option
(** [Some (translate t ipa)] when the page is mapped, [None] when it is
    not; never raises. *)

val mapped : t -> ipa_page:int -> bool
val permission : t -> ipa_page:int -> perm option
val mapping_count : t -> int

val iter : t -> (ipa_page:int -> pa_page:int -> perm -> unit) -> unit

val pp_fault : Format.formatter -> fault -> unit
