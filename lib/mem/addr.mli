(** The three address spaces of ARM virtualized memory (section II):
    Virtual Addresses (VA), Intermediate Physical Addresses (IPA — the
    VM's view of physical memory), and Physical Addresses (PA — machine
    addresses). Distinct types prevent a hypervisor model from ever
    confusing a guest-physical address with a machine address. *)

type va
type ipa
type pa

val page_size : int
(** 4096 bytes. *)

val va : int -> va
val ipa : int -> ipa

val va_to_int : va -> int
val ipa_to_int : ipa -> int
val pa_to_int : pa -> int

val ipa_page : ipa -> int
(** Page frame number containing the address. *)

val pa_page : pa -> int
val va_page : va -> int

val ipa_offset : ipa -> int
(** Offset within the page. *)

val ipa_of_page : int -> ipa
val pa_of_page : int -> pa

val pa_add : pa -> int -> pa

val equal_pa : pa -> pa -> bool
val pp_ipa : Format.formatter -> ipa -> unit
