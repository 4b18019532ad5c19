(** Typed stat markers: the rows of [armvirt stat].

    A marker is what a hypervisor or switch model counts through
    [Armvirt_arch.Machine.count]: a VM exit, a VM entry, an operation,
    or a switch port, flood or uplink counter. [Machine.marker] takes a
    {!t}, so a misspelled row is a compile error, and {!Accounting}
    reads a counted marker's parts from its constructor, never from its
    label. Exit reasons and directions are variants; the free-form name
    parts are checked as lowercase identifiers when a marker is built
    ([Invalid_argument] otherwise).

    {!label} renders the marker once, when a machine interns it; only
    the trace and the machine's counter set use the string:

    - exit:   ["<hyp>.exit/<reason>/p<pcpu>"], e.g. ["kvm_arm.exit/hvc/p4"]
    - entry:  ["<hyp>.entry/p<pcpu>"] or ["<hyp>.entry/p<pcpu>/d<domid>"]
    - op:     ["<hyp>.<name>"], e.g. ["kvm_arm.hypercall"]
    - port:   ["vswitch.<switch>/p<port>/(rx|tx|drop)"]
    - flood:  ["vswitch.<switch>/flood"]
    - uplink: ["wire.<switch>-u<uplink>/(rx|tx)"]

    {!reason} mirrors [Armvirt_arch.Esr.exception_class]; the library
    graph (arch depends on obs) keeps [Esr] itself out of reach here,
    so [Esr.marker_reason] maps one onto the other and [test_esr]
    checks the map is one to one. *)

type reason = Wfx | Hvc | Smc | Sysreg | Iabt | Dabt | Irq

val all_reasons : reason list

val reason_to_string : reason -> string
(** The lowercase mnemonic that keys an exit row: ["wfx"], ["hvc"],
    ["smc"], ["sysreg"], ["iabt"], ["dabt"] or ["irq"]. *)

type dir = Rx | Tx | Drop

type t = private
  | Exit of { hyp : string; reason : reason; pcpu : int }
  | Entry of { hyp : string; pcpu : int; domid : int option }
  | Op of { hyp : string; name : string; cat : Span.category }
  | Port of { switch : string; port : int; dir : dir }
  | Flood of { switch : string }
  | Uplink of { switch : string; uplink : int; dir : dir }

val exit : hyp:string -> reason:reason -> pcpu:int -> t

val entry : ?domid:int -> hyp:string -> pcpu:int -> unit -> t
(** Fleet schedulers tag every entry with the guest's [domid]. *)

val op : hyp:string -> Span.category -> string -> t
(** An operation counter of the given category; the name must match
    [[a-z0-9_]+]. *)

val port : switch:string -> port:int -> dir -> t

val flood : switch:string -> t

val uplink : switch:string -> uplink:int -> dir -> t
(** [Drop] raises [Invalid_argument]: wires do not drop in the model. *)

val label : t -> string
(** The bytes above. Distinct markers have distinct labels. *)

val hyp : t -> string
(** A stat row's prefix: the hypervisor, ["vswitch"] or ["wire"]. *)

val name : t -> string
(** The label after [hyp ^ "."]: an op row's name ("hypercall",
    ["s0/p1/rx"], ["s0-u0/tx"]). *)

val category : t -> Span.category
(** By constructor: exits and entries are {!Span.Vmexit}; an op is the
    category {!op} was given; a port's [Rx] and [Tx] and every uplink
    are {!Span.Io}; a port's [Drop] and a flood are {!Span.Other}. *)
