(** Pooled, compact per-guest state.

    Instead of one heavyweight simulated machine per guest (the
    one-guest-per-cell layout the paper experiments use), a fleet keeps
    every guest as a small mutable slot in one array on one host:
    domid-indexed, with per-VCPU remaining-work arrays reused across
    tenancies. Departing guests return their domid to a min-heap of
    free domids, so churn exercises slot reuse deterministically — the
    lowest retired domid is always recycled first. *)

type vm_state = Booting | Ready

type slot = {
  mutable occupied : bool;
  mutable profile : int;  (** Index into the descriptor's profile mix. *)
  mutable state : vm_state;
  mutable vcpus : int;
  mutable pending_vcpus : int;  (** VCPUs still running their work. *)
  mutable arrived_at : int;
  mutable ready_at : int;
  mutable work : int array;  (** Per-VCPU remaining cycles. *)
}

type t

val create : unit -> t

val admit : t -> profile:int -> vcpus:int -> now:int -> int
(** Admits a guest and returns its domid (lowest free, else a fresh
    one). Raises [Invalid_argument] if [vcpus < 1]. *)

val slot : t -> int -> slot
(** Raises [Invalid_argument] for a domid that is not currently live. *)

val retire : t -> int -> unit
(** Returns the domid to the free heap, O(log n). Raises
    [Invalid_argument] for a domid that is not currently live. *)

val admitted : t -> int
val retired : t -> int
val peak_live : t -> int

val reused : t -> int
(** How many admissions recycled a previously retired domid. *)

val high_water : t -> int
(** Highest domid ever allocated + 1 — the slot table's footprint. *)
