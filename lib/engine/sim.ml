type observer = {
  on_spawn : id:int -> name:string -> at:int -> unit;
  on_park : id:int -> name:string -> at:int -> unit;
  on_wake : id:int -> name:string -> at:int -> unit;
  on_contention : resource:string -> proc:string -> at:int -> waited:int -> unit;
  on_queue_depth : mailbox:string -> at:int -> depth:int -> unit;
}

(* A pending event. Delay expiries and wake-ups — the dominant events by
   far — store their continuation (and resume value) directly in one
   small block instead of a wrapper closure; everything else is a timed
   callback ([at]), spawns included. *)
type event =
  | Call of (unit -> unit)
  | Resume : ('a, unit) Effect.Deep.continuation * 'a -> event

(* A parked process: what names it (see [name_of]) and its index in its
   sim's [parked] table, or [-1] once woken. *)
type parked = {
  pid : int;
  name : string option;
  number : int option;
  mutable index : int;
}

type t = {
  mutable now : int;
  mutable seq : int;
  events : event Heap.t;
  mutable parked : parked array;
  mutable parked_count : int;
      (* [parked.(0 .. parked_count - 1)] holds the processes parked now,
         in no order: a park appends, a wake moves the last entry into
         the hole. Both are O(1), and the table is as large as the most
         processes ever parked at once, however many a run starts. Names are read from it only for a deadlock report,
         sorted there for determinism. *)
  mutable next_pid : int;
  mutable processed : int;
      (* events executed so far: the engine's raw-throughput numerator *)
  mutable observer : observer option;
      (* [None] keeps every scheduling path allocation-free *)
  mutable slot : slot;
      (* the slot of the domain that built [t] or last entered its run *)
  mutable delayed : int;
      (* the cycles of the [Delay] effect being handled, for [on_delay] *)
  on_delay : ((unit, unit) Effect.Deep.continuation -> unit) option;
  on_now : ((int, unit) Effect.Deep.continuation -> unit) option;
  retc : unit -> unit;
  exnc : exn -> unit;
      (* The handler parts no process owns, built once per sim: a delay,
         a clock read, a return and a raise allocate no handler of their
         own. *)
}

(* One per domain: the sim whose code is running on this domain, and
   what that code is; [sim] is valid unless [mode] is [Idle].
   - [Process]: set just before every resume of a process and cleared
     on every return to its handler that parks it (a delay, a suspend,
     a return, a raise). The innermost handler is one of [sim]'s
     processes, and the next thing [sim]'s loop does after that process
     performs [Delay] is pop the earliest event, so a delay may run
     ahead.
   - [Forked]: the first slice of a process [fork] started. Its handler
     is innermost, but when it parks, [fork]'s caller carries on at the
     current cycle, so a delay must go through the queue.
   - [Callback]: one of [sim]'s callbacks runs outside any process. An
     effect would reach no handler of [sim] (or, in a nested run, an
     outer sim's), so the blocking operations refuse.
   [fork] and [run] put back the state they found. Reaching the slot
   through the sim's cached [slot] keeps the resume and effect paths
   free of [Domain.DLS] calls. *)
and slot = { mutable sim : t option; mutable mode : mode }
and mode = Idle | Process | Forked | Callback

let running : slot Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { sim = None; mode = Idle })

exception Deadlock of string

type _ Effect.t +=
  | Delay : int -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Now : int Effect.t
  | Whoami : string Effect.t

(* Writes [sim] only when the domain switches sims, so a resume of the
   same sim's processes allocates nothing and needs no write barrier. *)
let[@inline] enter t mode =
  let slot = t.slot in
  (match slot.sim with
  | Some s when s == t -> ()
  | Some _ | None -> slot.sim <- Some t);
  slot.mode <- mode

let[@inline] leave t = t.slot.mode <- Idle

let[@inline] restore slot sim mode =
  slot.sim <- sim;
  slot.mode <- mode

let schedule_event t ~at ev =
  assert (at >= t.now);
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.push t.events ~time:at ~seq ev

let create () =
  let events = Heap.create () and slot = Domain.DLS.get running in
  let rec t =
    {
      now = 0;
      seq = 0;
      events;
      parked = [||];
      parked_count = 0;
      next_pid = 0;
      processed = 0;
      observer = None;
      slot;
      delayed = 0;
      on_delay =
        Some
          (fun k ->
            leave t;
            schedule_event t ~at:(t.now + t.delayed) (Resume (k, ())));
      on_now = Some (fun k -> Effect.Deep.continue k t.now);
      retc = (fun () -> leave t);
      exnc =
        (fun e ->
          leave t;
          raise e);
    }
  in
  t

let set_observer t obs = t.observer <- obs

let now t = Cycles.of_int t.now
let events_processed t = t.processed

let at t time f =
  let cycle = Cycles.to_int time in
  if cycle < t.now then
    invalid_arg
      (Printf.sprintf "Sim.at: cycle %d is before the current cycle %d" cycle
         t.now);
  schedule_event t ~at:cycle (Call f)

(* Formatted only when something reads it: an observer, [whoami], a
   deadlock report or a double wake. *)
let name_of pid name number =
  match (name, number) with
  | Some name, None -> name
  | Some name, Some n -> name ^ "-" ^ string_of_int n
  | None, Some n -> "process-" ^ string_of_int n
  | None, None -> "process-" ^ string_of_int pid

let parked_name p = name_of p.pid p.name p.number
let nobody = { pid = -1; name = None; number = None; index = -1 }

let park t p =
  let n = t.parked_count in
  if n = Array.length t.parked then begin
    let parked = Array.make (max 16 (2 * n)) nobody in
    Array.blit t.parked 0 parked 0 n;
    t.parked <- parked
  end;
  t.parked.(n) <- p;
  p.index <- n;
  t.parked_count <- n + 1

let unpark t p =
  let n = t.parked_count - 1 in
  let last = t.parked.(n) in
  t.parked.(p.index) <- last;
  last.index <- p.index;
  t.parked.(n) <- nobody;
  t.parked_count <- n;
  p.index <- -1

(* Each process runs under one deep handler. Delay re-queues the
   continuation; Suspend parks it behind a user-controlled wake function
   with a once-only guard so a double wake is an immediate error rather
   than silent corruption. Every resume of the process is preceded by
   [enter], and every way back into the handler that parks or ends the
   process (a delay, a suspend, a return, a raise) begins with [leave];
   the effects that continue at once leave the mode as it is. *)
let start t mode name number f =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  (match t.observer with
  | None -> ()
  | Some o -> o.on_spawn ~id:pid ~name:(name_of pid name number) ~at:t.now);
  let open Effect.Deep in
  enter t mode;
  match_with f ()
    {
      retc = t.retc;
      exnc = t.exnc;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Delay c ->
              t.delayed <- c;
              t.on_delay
          | Now -> t.on_now
          | Suspend register ->
              Some
                (fun k ->
                  leave t;
                  let p = { pid; name; number; index = -1 } in
                  park t p;
                  (match t.observer with
                  | None -> ()
                  | Some o ->
                      o.on_park ~id:pid ~name:(parked_name p) ~at:t.now);
                  let wake v =
                    if p.index < 0 then
                      invalid_arg
                        (Printf.sprintf "Sim: process %s woken twice"
                           (parked_name p));
                    unpark t p;
                    (match t.observer with
                    | None -> ()
                    | Some o ->
                        o.on_wake ~id:p.pid ~name:(parked_name p) ~at:t.now);
                    schedule_event t ~at:t.now (Resume (k, v))
                  in
                  register wake)
          | Whoami -> Some (fun k -> continue k (name_of pid name number))
          | _ -> None);
    }

(* A spawned process starts from a callback that does nothing after it,
   so its first slice may run ahead like any later one. *)
let spawn t ?name ?number f =
  schedule_event t ~at:t.now (Call (fun () -> start t Process name number f))

(* A forked process runs until it first parks or ends; then the caller's
   frame is innermost again, so the slot state it had comes back,
   whether that frame is a callback, a process or host code. *)
let fork t ?name ?number f =
  let slot = t.slot in
  let sim = slot.sim and mode = slot.mode in
  match start t Forked name number f with
  | () -> restore slot sim mode
  | exception e ->
      restore slot sim mode;
      raise e

(* The engine's innermost loop: with no observer installed this
   allocates nothing — the clock read, the pop and the dispatch all
   operate on unboxed ints and the stored event. *)
let step t =
  if Heap.is_empty t.events then false
  else begin
    t.now <- Heap.min_time t.events;
    t.processed <- t.processed + 1;
    (match Heap.pop_min t.events with
    | Call f ->
        enter t Callback;
        f ();
        leave t
    | Resume (k, v) ->
        enter t Process;
        Effect.Deep.continue k v);
    true
  end

(* [run] takes this domain's slot on entry, and puts back the state it
   found there on exit: a process or callback that runs a nested sim
   carries on as before it. Between events the mode is [Idle]. *)
let run t =
  let slot = Domain.DLS.get running in
  t.slot <- slot;
  let sim = slot.sim and mode = slot.mode in
  slot.mode <- Idle;
  (match
     while step t do
       ()
     done
   with
  | () -> restore slot sim mode
  | exception e ->
      restore slot sim mode;
      raise e);
  if t.parked_count > 0 then begin
    (* Sorted at raise time so the report does not depend on park order
       (which parallel-built scenarios don't fix). *)
    let names = List.init t.parked_count (fun i -> parked_name t.parked.(i)) in
    raise (Deadlock (String.concat ", " (List.sort String.compare names)))
  end

(* Run-ahead: a delay whose expiry does not overflow and is strictly
   before every queued event would be pushed and then popped straight
   back, so finish it in place — same clock, same [seq] and [processed]
   advance, no effect and no heap traffic. A queued event at exactly
   [now + c] has the smaller [seq] and must run first. *)
let[@inline] run_ahead t c =
  let at = t.now + c in
  if
    c <= max_int - t.now
    && (Heap.is_empty t.events || Heap.min_time t.events > at)
  then begin
    t.now <- at;
    t.seq <- t.seq + 1;
    t.processed <- t.processed + 1;
    true
  end
  else false

let outside what =
  invalid_arg ("Sim." ^ what ^ " called outside a simulation process")

(* A blocking operation inside a callback: checked before the effect is
   performed, since in a nested run an outer process would handle it. *)
let refuse_in_callback slot what =
  if slot.mode == Callback then
    invalid_arg
      ("Sim." ^ what ^ " called inside a timed callback; wrap it in Sim.fork")

let delay_cycles c ~what =
  let slot = Domain.DLS.get running in
  match slot.sim with
  | Some t when slot.mode == Process && run_ahead t c -> ()
  | _ -> (
      refuse_in_callback slot what;
      try Effect.perform (Delay c) with Effect.Unhandled _ -> outside what)

let delay c = delay_cycles (Cycles.to_int c) ~what:"delay"
let yield () = delay_cycles 0 ~what:"yield"

let current_time () =
  let slot = Domain.DLS.get running in
  match slot.sim with
  | Some t when slot.mode != Idle -> Cycles.of_int t.now
  | _ -> (
      try Cycles.of_int (Effect.perform Now)
      with Effect.Unhandled _ -> outside "current_time")

let suspend register =
  refuse_in_callback (Domain.DLS.get running) "suspend";
  try Effect.perform (Suspend register)
  with Effect.Unhandled _ -> outside "suspend"

(* A process of a sim, forked or not, is the innermost handler exactly
   when the slot names that sim, so the spawn goes straight to it. *)
let spawn_here ?name ?number f =
  let slot = Domain.DLS.get running in
  refuse_in_callback slot "spawn_here";
  match slot.sim with
  | Some t when slot.mode != Idle -> spawn t ?name ?number f
  | Some _ | None -> outside "spawn_here"

type sim_handle = t

module Signal = struct
  type t = { waiters : (unit -> unit) Fifo.t }

  let create (_ : sim_handle) = { waiters = Fifo.create () }

  let wait s = suspend (fun wake -> Fifo.push s.waiters wake)

  (* Draining until empty wakes exactly the processes parked now: a
     woken process only re-parks when the scheduler next runs it, never
     during this loop. *)
  let notify s =
    while not (Fifo.is_empty s.waiters) do
      (Fifo.pop s.waiters) ()
    done

  let waiters s = Fifo.length s.waiters
end

let whoami () =
  try Effect.perform Whoami with Effect.Unhandled _ -> "main"

module Mailbox = struct
  type 'a t = {
    sim : sim_handle;
    mb_name : string;
    queue : 'a Fifo.t;
    takers : ('a -> unit) Fifo.t; (* FIFO: push on park, pop on send *)
  }

  let create ?(name = "mailbox") (sim : sim_handle) =
    { sim; mb_name = name; queue = Fifo.create (); takers = Fifo.create () }

  let depth_changed mb =
    match mb.sim.observer with
    | None -> ()
    | Some o ->
        o.on_queue_depth ~mailbox:mb.mb_name ~at:mb.sim.now
          ~depth:(Fifo.length mb.queue)

  (* Depth events fire exactly on queue-length transitions: a send that
     hands the value straight to a parked receiver never touches the
     queue, so it reports nothing (it used to re-report the unchanged
     depth), and symmetrically a recv satisfied by wake-up stays
     silent. *)
  let send mb v =
    if Fifo.is_empty mb.takers then begin
      Fifo.push mb.queue v;
      depth_changed mb
    end
    else (Fifo.pop mb.takers) v

  let recv mb =
    if Fifo.is_empty mb.queue then
      suspend (fun wake -> Fifo.push mb.takers wake)
    else begin
      let v = Fifo.pop mb.queue in
      depth_changed mb;
      v
    end

end

module Resource = struct
  type t = {
    sim : sim_handle;
    r_name : string;
    mutable available : int;
    waiters : (unit -> unit) Fifo.t; (* FIFO: push on park, pop on release *)
  }

  let create ?(name = "resource") (sim : sim_handle) ~capacity =
    if capacity < 1 then invalid_arg "Sim.Resource.create: capacity < 1";
    { sim; r_name = name; available = capacity; waiters = Fifo.create () }

  let acquire r =
    if r.available > 0 then r.available <- r.available - 1
    else begin
      let parked_at = r.sim.now in
      suspend (fun wake -> Fifo.push r.waiters wake);
      match r.sim.observer with
      | None -> ()
      | Some o ->
          o.on_contention ~resource:r.r_name ~proc:(whoami ()) ~at:parked_at
            ~waited:(r.sim.now - parked_at)
    end

  let release r =
    if Fifo.is_empty r.waiters then r.available <- r.available + 1
    else (Fifo.pop r.waiters) ()

  let available r = r.available

  let use r c =
    acquire r;
    (try delay c
     with e ->
       release r;
       raise e);
    release r
end
