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
    wake them. The payload names the stuck processes (see {!spawn}),
    sorted and comma-separated, so the report is deterministic
    regardless of park order. *)

val create : unit -> t
(** A sim at cycle 0 with no events. The handler parts its processes
    share (a return, a raise, a delay, a clock read) are built here,
    once, so no delay or clock read allocates a handler. *)

val now : t -> Cycles.t
(** Current simulated time. *)

val events_processed : t -> int
(** Number of events the engine has executed since {!create}: every
    delay expiry, wake-up, spawn and timed callback ({!at}) counts as
    one event; {!fork} counts none. A delay that
    runs ahead (see {!delay}) counts as the one event its expiry would
    have been, so the count does not depend on which delays ran ahead.
    Host time per event is the engine's raw cost metric; the ledger
    benchmark ([bench/ledger]) reports it per workload as
    [engine.host_ns_per_event.*]. *)

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
    time: [at t (now t)] with a callback that starts [f] in place, as
    {!fork} does.

    {b Names.} A process is called [name] (default ["process"]),
    followed by ["-<number>"] when [number] is given:
    [~name:"req" ~number:7] is ["req-7"]. With neither it is
    ["process-<pid>"], [pid] counting the sim's processes from 0 in
    start order. The name is formatted only when something reads it:
    an observer's callbacks, {!whoami}, a {!Deadlock} report or the
    double-wake error; so a numbered name costs no formatting on a run
    nobody watches. *)

(** {1 Timed callbacks}

    A callback is a function the engine calls at a given cycle, from
    one queue entry: no fiber, no effect, no continuation. It is the
    method half of SystemC's method/thread split, for work that only
    has to happen at a time, such as a frame arriving at the end of a
    wire. Callbacks and process wake-ups share one queue and run in
    [(cycle, scheduling-order)] order; a callback takes its place when
    {!at} is called.

    Inside a callback, {!current_time} reads the clock, and anything
    that does not block may run: {!at}, {!fork}, {!Signal.notify},
    {!Mailbox.send}, {!Resource.release}, and a {!Mailbox.recv} or
    {!Resource.acquire} that can complete at once. {!delay}, {!yield},
    {!suspend} (and so a [recv] or [acquire] that would park, or a
    {!Signal.wait}) and {!spawn_here} raise [Invalid_argument], also
    when the sim runs nested inside another sim's process, whose
    handler would otherwise take the effect. A callback that has to
    block wraps its body in {!fork}. *)

val at : t -> Cycles.t -> (unit -> unit) -> unit
(** [at t time f] calls [f] at cycle [time]. Each call counts as one
    event in {!events_processed}. Raises [Invalid_argument] if [time]
    is before {!now}. *)

val fork : t -> ?name:string -> ?number:int -> (unit -> unit) -> unit
(** [fork t f] starts process [f] in place: it runs at once, at the
    current cycle and with no event, until it first blocks or returns,
    and then [fork] returns. Its first delay never runs ahead (see
    {!delay}), since the caller carries on at the current cycle. Call
    it from a callback or a process of [t]. An exception [f] raises
    before it first blocks propagates out of [fork]. [name] and [number]
    are as for {!spawn}. *)

val run : t -> unit
(** Runs the simulation until no events remain. Raises {!Deadlock} if
    blocked processes remain when the event queue drains. *)

(** {1 Operations available inside a process} *)

val delay : Cycles.t -> unit
(** [delay c] suspends the calling process for [c] simulated cycles. Must
    be called from within a process; raises [Invalid_argument] otherwise.

    {b Run-ahead.} When [now + c] does not overflow and no queued
    event is at or before [now + c], the expiry would be queued and then
    popped next, so the delay finishes in place instead: the clock moves
    to [now + c], the event is counted, and the process carries on
    without an effect or a heap round-trip. An event already queued at
    exactly [now + c] was scheduled first and runs first, so the delay
    goes through the queue behind it. Run-ahead never reorders events
    or changes a timestamp, and each run-ahead counts as one event in
    {!events_processed}, exactly as the queued expiry would. *)

val yield : unit -> unit
(** Re-queues the calling process at the current time, letting any other
    process scheduled for this cycle run first. Same as [delay 0],
    run-ahead included: with nothing else due this cycle it returns at
    once, counted as one event. *)

val current_time : unit -> Cycles.t
(** Simulated time as seen by the calling process or callback.

    The engine keeps one domain-local slot naming the simulation whose
    process or callback is running on this domain: it is set just before
    each resume of a process and cleared when the process parks, returns
    or raises, set around each callback, and put back as it was when
    {!fork} or {!run} returns. While a
    process is running, {!delay} applies the run-ahead rule and
    [current_time] reads the clock directly, as it also does inside a
    callback; when the slot is empty (host code) both go through the
    effect handler, which is also where the "called outside a
    simulation process" errors come from. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the calling process and hands [register] a
    wake-up function. Calling the wake-up function (once) resumes the
    process at the waker's current simulated time with the provided value.
    This is the single primitive from which all synchronization in
    {!Signal}, {!Mailbox} and {!Resource} is built. *)

val spawn_here : ?name:string -> ?number:int -> (unit -> unit) -> unit
(** Like {!spawn} but callable from inside a process, targeting the
    enclosing simulation. *)

val whoami : unit -> string
(** The name of the calling process (see {!spawn}), or ["main"] outside
    any process. *)

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
