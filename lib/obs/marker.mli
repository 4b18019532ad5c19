(** Typed builders for {!Accounting}'s counter-label grammar.

    A marker label is a row key in [armvirt stat]: a typo does not fail
    at runtime, the row just silently vanishes from the table. These
    constructors make every label grammatical by construction — exit
    reasons and directions are variants, and free-form name parts are
    validated as lowercase identifiers ([Invalid_argument] otherwise).

    {!reason} mirrors [Armvirt_arch.Esr.exception_class] mnemonics; the
    library graph (arch depends on stats depends on obs) keeps [Esr]
    itself out of reach here, so parity is enforced by test and by the
    M1 lint pass, which links both libraries.

    The M1 pass closes the loop where labels are interned: string
    literals handed to [Machine.marker] are re-parsed with
    {!Accounting.parse_label}, and any non-literal label must be an
    application of one of these builders. [Machine.count] takes the
    interned marker, so every counted label passes that check once, when
    the model is built. Constant operation counters like
    ["kvm_arm.hypercall"] should stay literals — grammar-checked at lint
    time; use {!op} only when the name is computed. *)

type reason = Wfx | Hvc | Smc | Sysreg | Iabt | Dabt | Irq

val all_reasons : reason list

val reason_to_string : reason -> string
(** The [Armvirt_arch.Esr.short_name] mnemonic. *)

val reason_of_string : string -> reason option

type dir = Rx | Tx | Drop

val exit : hyp:string -> reason:reason -> pcpu:int -> string
(** ["<hyp>.exit/<reason>/p<pcpu>"]. *)

val exit_name : hyp:string -> reason:string -> pcpu:int -> string
(** Like {!exit} for callers that already carry the mnemonic as a
    string (e.g. straight from [Esr.short_name]); raises
    [Invalid_argument] unless [reason] round-trips through
    {!reason_of_string}. *)

val entry : ?domid:int -> hyp:string -> pcpu:int -> unit -> string
(** ["<hyp>.entry/p<pcpu>"] or ["<hyp>.entry/p<pcpu>/d<domid>"]. *)

val op : hyp:string -> string -> string
(** ["<hyp>.<op>"] with [op] in [[a-z0-9_]+]. *)

val port : switch:string -> port:int -> dir -> string
(** ["vswitch.<switch>/p<port>/(rx|tx|drop)"]. *)

val flood : switch:string -> string
(** ["vswitch.<switch>/flood"]. *)

val uplink : switch:string -> uplink:int -> dir -> string
(** ["wire.<switch>-u<uplink>/(rx|tx)"]; [Drop] raises
    [Invalid_argument] — wires do not drop in the model. *)
