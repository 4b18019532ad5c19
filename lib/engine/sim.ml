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

type t = {
  mutable now : int;
  mutable seq : int;
  events : event Heap.t;
  mutable blocked_names : string array;
      (* pid-indexed; valid only where [is_blocked.(pid)]. Flat arrays
         make park/wake O(1) and allocation-free (the wake path used to
         List.filter a list — O(parked) per wake, quadratic across a
         fleet of parked processes). Names are only read at
         deadlock-report time, sorted there for determinism. *)
  mutable is_blocked : bool array;
  mutable blocked_count : int;
  mutable next_pid : int;
  mutable processed : int;
      (* events executed so far: the engine's raw-throughput numerator *)
  mutable observer : observer option;
      (* [None] keeps every scheduling path allocation-free *)
  mutable slot : slot;
      (* the slot of the domain that built [t] or last entered its run *)
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
  | Spawn : (string option * (unit -> unit)) -> unit Effect.t
  | Whoami : string Effect.t

let create () =
  {
    now = 0;
    seq = 0;
    events = Heap.create ();
    blocked_names = [||];
    is_blocked = [||];
    blocked_count = 0;
    next_pid = 0;
    processed = 0;
    observer = None;
    slot = Domain.DLS.get running;
  }

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

let set_observer t obs = t.observer <- obs

let now t = Cycles.of_int t.now
let events_processed t = t.processed

let schedule_event t ~at ev =
  assert (at >= t.now);
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.push t.events ~time:at ~seq ev

let at t time f =
  let cycle = Cycles.to_int time in
  if cycle < t.now then
    invalid_arg
      (Printf.sprintf "Sim.at: cycle %d is before the current cycle %d" cycle
         t.now);
  schedule_event t ~at:cycle (Call f)

(* Each process runs under one deep handler. Delay re-queues the
   continuation; Suspend parks it behind a user-controlled wake function
   with a once-only guard so a double wake is an immediate error rather
   than silent corruption. Every resume of the process is preceded by
   [enter], and every way back into the handler that parks or ends the
   process (a delay, a suspend, a return, a raise) begins with [leave];
   the effects that continue at once leave the mode as it is. *)
let rec start t mode name f =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  if pid >= Array.length t.is_blocked then begin
    let cap = max 16 (2 * Array.length t.is_blocked) in
    let names = Array.make cap "" and flags = Array.make cap false in
    Array.blit t.blocked_names 0 names 0 pid;
    Array.blit t.is_blocked 0 flags 0 pid;
    t.blocked_names <- names;
    t.is_blocked <- flags
  end;
  let pname =
    match name with Some n -> n | None -> Printf.sprintf "process-%d" pid
  in
  (match t.observer with
  | None -> ()
  | Some o -> o.on_spawn ~id:pid ~name:pname ~at:t.now);
  let open Effect.Deep in
  enter t mode;
  match_with f ()
    {
      retc = (fun () -> leave t);
      exnc =
        (fun e ->
          leave t;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay c ->
              Some
                (fun (k : (a, _) continuation) ->
                  leave t;
                  schedule_event t ~at:(t.now + c) (Resume (k, ())))
          | Now -> Some (fun k -> continue k t.now)
          | Spawn (name', g) ->
              Some
                (fun k ->
                  spawn t ?name:name' g;
                  continue k ())
          | Suspend register ->
              Some
                (fun k ->
                  leave t;
                  t.blocked_names.(pid) <- pname;
                  t.is_blocked.(pid) <- true;
                  t.blocked_count <- t.blocked_count + 1;
                  (match t.observer with
                  | None -> ()
                  | Some o -> o.on_park ~id:pid ~name:pname ~at:t.now);
                  let woken = ref false in
                  let wake v =
                    if !woken then
                      invalid_arg
                        (Printf.sprintf "Sim: process %s woken twice" pname);
                    woken := true;
                    t.is_blocked.(pid) <- false;
                    t.blocked_count <- t.blocked_count - 1;
                    (match t.observer with
                    | None -> ()
                    | Some o -> o.on_wake ~id:pid ~name:pname ~at:t.now);
                    schedule_event t ~at:t.now (Resume (k, v))
                  in
                  register wake)
          | Whoami -> Some (fun k -> continue k pname)
          | _ -> None);
    }

(* A spawned process starts from a callback that does nothing after it,
   so its first slice may run ahead like any later one. *)
and spawn t ?name f =
  schedule_event t ~at:t.now (Call (fun () -> start t Process name f))

(* A forked process runs until it first parks or ends; then the caller's
   frame is innermost again, so the slot state it had comes back,
   whether that frame is a callback, a process or host code. *)
let fork t ?name f =
  let slot = t.slot in
  let sim = slot.sim and mode = slot.mode in
  match start t Forked name f with
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
  if t.blocked_count > 0 then begin
    (* Sorted at raise time so the report does not depend on park order
       (which parallel-built scenarios don't fix). *)
    let names = ref [] in
    for pid = t.next_pid - 1 downto 0 do
      if t.is_blocked.(pid) then names := t.blocked_names.(pid) :: !names
    done;
    let names = List.sort String.compare !names in
    raise (Deadlock (String.concat ", " names))
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

let spawn_here ?name f =
  refuse_in_callback (Domain.DLS.get running) "spawn_here";
  try Effect.perform (Spawn (name, f))
  with Effect.Unhandled _ -> outside "spawn_here"

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
