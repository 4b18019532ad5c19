(** Xen grant tables: the mechanism Dom0 and a guest use to share pages.

    Section V of the paper attributes much of Xen's I/O overhead to this
    machinery: "Xen does not support zero-copy I/O, but instead must map a
    shared page between Dom0 and the VM using the Xen grant mechanism, and
    must copy data between the memory buffer used for DMA in Dom0 and the
    granted memory buffer from the VM. Each data copy incurs more than
    3 μs of additional latency because of the complexities of establishing
    and utilizing the shared page via the grant mechanism". This module is
    the bookkeeping; {!Armvirt_io.Xen_pv} prices its use. *)

type domid = int

type gref
(** A grant reference: an index into the granting domain's table. *)

val gref_to_int : gref -> int

type access = Readonly | Full

type error =
  | Unknown_ref of int  (** No such grant. *)
  | Wrong_domain of { expected : domid; actual : domid }
  | Already_mapped of int
  | Not_mapped of int
  | Write_to_readonly of int

exception Grant_error of error

type t
(** One domain's grant table. *)

val create : unit -> t

val grant : t -> to_dom:domid -> ipa_page:int -> access -> gref
(** The owner offers [ipa_page] to [to_dom]. *)

val map : t -> gref -> by:domid -> int
(** [map t ref ~by] maps the granted page into domain [by]'s space and
    returns the page frame. Raises {!Grant_error}: [Unknown_ref] for an
    absent reference, [Wrong_domain] when [by] is not the
    grantee, [Already_mapped] on a double map. *)

val unmap : t -> gref -> by:domid -> unit

val is_mapped : t -> gref -> bool
val access_of : t -> gref -> access option
val active_grants : t -> int
val mapped_grants : t -> int
