(* The queue-only engine, the oracle for the run-ahead engine in
   Armvirt_engine.Sim; see reference_sim.ml. *)

open Armvirt_engine

(** Deterministic discrete-event simulation engine.

    Simulated actors are coroutines ("processes") built on OCaml 5 effect
    handlers. A process advances simulated time by performing {!delay} and
    cooperates with other processes through the synchronization primitives
    in {!Signal}, {!Mailbox} and {!Resource}. The engine interleaves all
    runnable processes in strict [(cycle, scheduling-order)] order, so a
    given program produces bit-identical results on every run — the
    property the paper obtains on hardware through pinning, isolation and
    instruction barriers, we obtain by construction. *)

type t
(** A simulation world: the global cycle clock and the pending-event
    queue. *)

exception Deadlock of string
(** Raised by {!run} when processes remain blocked but no event can ever
    wake them. The payload names the stuck processes, sorted, so the
    report is deterministic regardless of park order. *)

val create : unit -> t

val now : t -> Cycles.t
(** Current simulated time. *)

val events_processed : t -> int
(** Number of events the engine has executed since {!create}: every
    delay expiry, wake-up and spawn counts as one event. Events/sec
    ([events_processed] over host wall time) is the engine's raw
    throughput metric, tracked PR-over-PR in [BENCH_events.json]. *)

(** {1 Observability}

    An observer receives scheduling callbacks as the simulation runs:
    process lifecycle ({!field-observer.on_spawn},
    {!field-observer.on_park}, {!field-observer.on_wake}), time spent
    blocked on a contended {!Resource}, and {!Mailbox} queue-depth
    changes. All timestamps are raw simulated cycles. With no observer
    installed (the default), every path is identical to the unobserved
    engine — no allocation, no indirection beyond one [option] match. *)

type observer = {
  on_spawn : id:int -> name:string -> at:int -> unit;
  on_park : id:int -> name:string -> at:int -> unit;
  on_wake : id:int -> name:string -> at:int -> unit;
  on_contention : resource:string -> proc:string -> at:int -> waited:int -> unit;
      (** Called when a process resumes after blocking in
          {!Resource.acquire}: it parked at [at] and waited [waited]
          cycles. Uncontended acquires never report. *)
  on_queue_depth : mailbox:string -> at:int -> depth:int -> unit;
      (** Called exactly when a {!Mailbox} queue changes length: a send
          that enqueues, or a recv that dequeues. Direct
          send-to-parked-receiver hand-offs bypass the queue and do not
          report. *)
}

val set_observer : t -> observer option -> unit

val spawn : t -> ?name:string -> ?number:int -> (unit -> unit) -> unit
(** [spawn t f] registers process [f] to start at the current simulated
    time. [name] and [number] name it as for [Sim.spawn], formatted
    when the process starts. *)

val at : t -> Cycles.t -> (unit -> unit) -> unit
(** [at t time f] queues [f] to run at [time], outside any process. *)

val fork : t -> ?name:string -> ?number:int -> (unit -> unit) -> unit
(** [fork t f] starts process [f] in place, with no event. *)

val run : t -> unit
(** Runs the simulation until no events remain. Raises {!Deadlock} if
    blocked processes remain when the event queue drains. *)

(** {1 Operations available inside a process} *)

val delay : Cycles.t -> unit
(** [delay c] suspends the calling process for [c] simulated cycles. Must
    be called from within a process; raises [Invalid_argument] otherwise. *)

val yield : unit -> unit
(** Re-queues the calling process at the current time, letting any other
    process scheduled for this cycle run first. *)

val current_time : unit -> Cycles.t
(** Simulated time as seen by the calling process. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the calling process and hands [register] a
    wake-up function. Calling the wake-up function (once) resumes the
    process at the waker's current simulated time with the provided value.
    This is the single primitive from which all synchronization in
    {!Signal}, {!Mailbox} and {!Resource} is built. *)

val spawn_here : ?name:string -> ?number:int -> (unit -> unit) -> unit
(** Like {!spawn} but callable from inside a process, targeting the
    enclosing simulation. *)

(** {1 Synchronization primitives} *)

module Signal : sig
  (** Broadcast conditions: all current waiters wake on {!notify}. *)

  type sim := t
  type t

  val create : sim -> t
  val wait : t -> unit
  (** Blocks the calling process until the next {!notify}. *)

  val notify : t -> unit
  (** Wakes every process currently blocked in {!wait}. May be called from
    inside or outside a process. *)

  val waiters : t -> int
end

module Mailbox : sig
  (** Unbounded FIFO channels carrying values between processes. *)

  type sim := t
  type 'a t

  val create : ?name:string -> sim -> 'a t
  (** [name] (default ["mailbox"]) identifies this mailbox in observer
      queue-depth callbacks. *)

  val send : 'a t -> 'a -> unit
  (** Never blocks. If a receiver is parked, it is woken with the value;
    otherwise the value is queued. *)

  val recv : 'a t -> 'a
  (** Returns the oldest queued value, blocking if none is available. *)

end

module Resource : sig
  (** Counting semaphores, used to model exclusive occupancy of simulated
    hardware (e.g. a physical CPU that can run one context at a time). *)

  type sim := t
  type t

  val create : ?name:string -> sim -> capacity:int -> t
  (** [name] (default ["resource"]) identifies this resource in observer
      contention callbacks. *)

  val acquire : t -> unit
  val release : t -> unit
  val available : t -> int

  val use : t -> Cycles.t -> unit
  (** [use r c] acquires [r], delays [c] cycles, then releases — even if
    the delayed section raises. *)
end
