(** Bridge from the Table IV workload catalog to fleet guest profiles.

    A fleet guest is a microVM running a scaled slice of a catalog
    benchmark: the conversion fixes VCPU count, memory share, boot work
    and mean steady-state work per profile category, so descriptors can
    be built from the CLI's [--profile-mix] syntax. *)

val parse_mix :
  string ->
  ((Armvirt_fleet.Descriptor.profile * int) list, string) result
(** Parses ["memcached=2,kernbench=1"]. Shares default to 1; the name
    ["synthetic"] maps to {!Armvirt_fleet.Descriptor.synthetic}. *)
