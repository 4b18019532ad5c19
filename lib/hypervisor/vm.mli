(** Virtual machines and VCPUs, configured as in the paper's testbed.

    Section III: each VM is a 4-way SMP with every VCPU pinned to a
    dedicated PCPU; host/Dom0 work is confined to a disjoint PCPU set.
    Each VCPU owns a GIC virtual interface ({!Armvirt_gic.Vgic}) and a
    stage-2 address space is shared per VM. *)

type vcpu = {
  vm_domid : int;
  index : int;
  pcpu : int;  (** The physical CPU this VCPU is pinned to. *)
  vgic : Armvirt_gic.Vgic.t;
}

type t = {
  domid : int;
  vm_name : string;
  vcpus : vcpu array;
  stage2 : Armvirt_mem.Stage2.t;
  grants : Armvirt_mem.Grant_table.t;
      (** The VM's grant table (used by Xen guests; idle for KVM). *)
}

val create :
  domid:int -> name:string -> pcpus:int list -> t
(** One VCPU per listed PCPU, in order. Raises [Invalid_argument] on an
    empty list or duplicate PCPUs. *)

val vcpu : t -> int -> vcpu
val num_vcpus : t -> int

val map_memory : t -> pages:int -> base_pa_page:int -> unit
(** Identity-ish stage-2 layout: guest page [i] backed by machine page
    [base_pa_page + i], read-write. *)
