(** The exit and entry markers of one hypervisor prefix on one machine.

    Every world switch counts an exit marker
    (["<hyp>.exit/<reason>/p<pcpu>"]) and an entry marker
    (["<hyp>.entry/p<pcpu>[/d<domid>]"]). A table built once per model
    instance returns the interned marker for each, building its label
    with {!Armvirt_obs.Marker} and interning it with {!Machine.marker}
    only the first time that (reason, pcpu) or (pcpu, domid) is marked.
    Nothing is built up front, so a machine that never switches pays
    for no labels. *)

type t

val create : Machine.t -> hyp:string -> t
(** [hyp] is the marker prefix (["kvm_arm"], ["xen_x86"], ...); the
    {!Armvirt_obs.Marker} builders validate it on first use. *)

val exit : t -> Armvirt_obs.Marker.reason -> pcpu:int -> Machine.marker
(** Raises [Invalid_argument] if [pcpu] is not a PCPU of the machine. *)

val entry : ?domid:int -> t -> pcpu:int -> Machine.marker
(** Raises [Invalid_argument] if [pcpu] is not a PCPU of the machine or
    [domid] is negative. *)
