(* The engine as it was before run-ahead, kept verbatim as the oracle for
   test_engine's differential property: every delay goes through the
   effect handler and the event queue. Only test_engine uses it. *)

open Armvirt_engine

type observer = {
  on_spawn : id:int -> name:string -> at:int -> unit;
  on_park : id:int -> name:string -> at:int -> unit;
  on_wake : id:int -> name:string -> at:int -> unit;
  on_contention : resource:string -> proc:string -> at:int -> waited:int -> unit;
  on_queue_depth : mailbox:string -> at:int -> depth:int -> unit;
}

(* A pending event. Delay expiries and wake-ups — the dominant events by
   far — store their continuation (and resume value) directly in one
   small block instead of a wrapper closure; everything else stays a
   thunk. *)
type event =
  | Run of (unit -> unit)
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
}

exception Deadlock of string

type _ Effect.t +=
  | Delay : int -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Now : int Effect.t
  | Spawn : (string option * int option * (unit -> unit)) -> unit Effect.t
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
  }

let set_observer t obs = t.observer <- obs

let now t = Cycles.of_int t.now
let events_processed t = t.processed

let schedule_event t ~at ev =
  assert (at >= t.now);
  let seq = t.seq in
  t.seq <- seq + 1;
  Heap.push t.events ~time:at ~seq ev

let schedule t ~at action = schedule_event t ~at (Run action)

(* Each process runs under one deep handler. Delay re-queues the
   continuation; Suspend parks it behind a user-controlled wake function
   with a once-only guard so a double wake is an immediate error rather
   than silent corruption. *)
let rec start t name number f =
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
    match (name, number) with
    | Some n, Some k -> Printf.sprintf "%s-%d" n k
    | Some n, None -> n
    | None, Some k -> Printf.sprintf "process-%d" k
    | None, None -> Printf.sprintf "process-%d" pid
  in
  (match t.observer with
  | None -> ()
  | Some o -> o.on_spawn ~id:pid ~name:pname ~at:t.now);
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay c ->
              Some
                (fun (k : (a, _) continuation) ->
                  schedule_event t ~at:(t.now + c) (Resume (k, ())))
          | Now -> Some (fun k -> continue k t.now)
          | Spawn (name', number', g) ->
              Some
                (fun k ->
                  schedule t ~at:t.now (fun () -> start t name' number' g);
                  continue k ())
          | Suspend register ->
              Some
                (fun k ->
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

let spawn t ?name ?number f =
  schedule t ~at:t.now (fun () -> start t name number f)

(* Timed callbacks with no guard: a queued thunk, and a process started
   in place. *)
let at t time f = schedule t ~at:(Cycles.to_int time) f
let fork t ?name ?number f = start t name number f

(* The engine's innermost loop: with no observer installed this
   allocates nothing — the clock read, the pop and the dispatch all
   operate on unboxed ints and the stored event. *)
let step t =
  if Heap.is_empty t.events then false
  else begin
    t.now <- Heap.min_time t.events;
    t.processed <- t.processed + 1;
    (match Heap.pop_min t.events with
    | Run action -> action ()
    | Resume (k, v) -> Effect.Deep.continue k v);
    true
  end

let run t =
  while step t do
    ()
  done;
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

let delay c =
  let c = Cycles.to_int c in
  try Effect.perform (Delay c)
  with Effect.Unhandled _ ->
    invalid_arg "Sim.delay called outside a simulation process"

let yield () =
  try Effect.perform (Delay 0)
  with Effect.Unhandled _ ->
    invalid_arg "Sim.yield called outside a simulation process"

let current_time () =
  try Cycles.of_int (Effect.perform Now)
  with Effect.Unhandled _ ->
    invalid_arg "Sim.current_time called outside a simulation process"

let suspend register =
  try Effect.perform (Suspend register)
  with Effect.Unhandled _ ->
    invalid_arg "Sim.suspend called outside a simulation process"

let spawn_here ?name ?number f =
  try Effect.perform (Spawn (name, number, f))
  with Effect.Unhandled _ ->
    invalid_arg "Sim.spawn_here called outside a simulation process"

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
