(** The x86 root/non-root world state machine — {!El2_state}'s sibling.

    Section II: "x86 root mode supports the same full range of user and
    kernel mode functionality as its non-root mode ... transitions
    between root and non-root mode on x86 are implemented with a VM
    Control Structure (VMCS) residing in normal memory, to and from
    which hardware state is automatically saved and restored". The
    hypervisor's only bookkeeping is which VMCS is current on each CPU —
    there is nothing to toggle and no EL1 ownership question, which is
    exactly why both x86 hypervisors transition at the same cost.

    The machine enforces the few rules that do exist: a VM entry needs a
    current, launched-or-clear VMCS; only one VMCS is current per CPU;
    Dom0-style PV contexts run in root mode and never enter. *)

type mode = Root | Non_root

exception Invalid_transition of string

type t

val create : unit -> t
(** Boots in root mode with no current VMCS. *)

val mode : t -> mode

val current_vmcs : t -> int option
(** The domid whose VMCS is current (vmptrld'ed), if any. *)

val running_vm : t -> int option

val vmptrld : t -> domid:int -> unit
(** Make a VM's VMCS current (replacing any other — hardware allows only
    one). Only legal in root mode. *)

val vmclear : t -> unit
(** Drop the current VMCS (e.g. before migrating it to another CPU). *)

val vmentry : t -> unit
(** VMLAUNCH/VMRESUME: requires root mode and a current VMCS. The
    hardware loads guest state from the VMCS. *)

val vmexit : t -> unit
(** Any exit reason: hardware stores guest state to the current VMCS
    and loads host state. Only meaningful from non-root mode. *)

val establish : t -> mode:mode -> vmcs:int option -> unit
(** Benchmark setup: place the CPU in a precondition established off the
    measured path (mirrors {!El2_state.establish}). No validation. *)
