module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Counter = Armvirt_stats.Counter
module Span = Armvirt_obs.Span
module Tracer = Armvirt_obs.Tracer
module Metrics = Armvirt_obs.Metrics
module Export = Armvirt_obs.Export
module Accounting = Armvirt_obs.Accounting

type cell = {
  label : string;
  trace : Tracer.t;
  metrics : Metrics.t;
  rows : Accounting.vm_stats list;
}

(* One live collector per domain: the runner executes each cell on one
   domain, and [capture] scopes a collector to the cell so concurrent
   cells never share a tracer. [tracer] is [None] when no trace export
   will be read. *)
type live = {
  tracer : Tracer.t option;
  cell_metrics : Metrics.t;
  mutable machines : (Machine.t * Accounting.pairing) list; (* newest first *)
}

let live_key : live option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let ring_capacity = 1 lsl 18

let enabled = ref false
let tracing = ref false
let context_name = ref "run"
let map_seq = Atomic.make 0

(* Everything below the lock is shared across runner domains. *)
let lock = Mutex.create ()
let recorded : cell list ref = ref [] (* newest first *)
let global = ref (Metrics.create ())

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let active () = !enabled
let context () = !context_name
let next_map_seq () = Atomic.fetch_and_add map_seq 1

(* --- machine instrumentation --------------------------------------- *)

(* An int table keyed by a dense id, -1 where unset: [slots t i] grows
   [t] to hold slot [i] and returns it. *)
let slots t i =
  if i >= Array.length !t then begin
    let grown = Array.make (Stdlib.max 64 (2 * (i + 1))) (-1) in
    Array.blit !t 0 grown 0 (Array.length !t);
    t := grown
  end;
  !t

(* A machine's ops and markers are dense counter ids, so the sink maps
   each to its interned name through an int table: a traced spend
   neither hashes nor allocates. *)
let machine_sink ?pairing ~track tracer =
  let track = Tracer.track tracer track in
  let names = ref [||] in
  let name_of (id : Counter.id) label =
    let id = (id :> int) in
    let known = slots names id in
    if known.(id) < 0 then known.(id) <- Tracer.name tracer label;
    known.(id)
  in
  let spend ~id ~label ~cat ~cycles ~now =
    let now = Cycles.to_int now in
    Tracer.complete tracer ~track ~cat ~name:(name_of id label)
      ~ts:(now - cycles) ~dur:cycles
  in
  let count ~id ~marker ~label ~cat ~now =
    let ts = Cycles.to_int now in
    Tracer.instant tracer ~track ~cat ~name:(name_of id label) ~ts;
    match pairing with Some p -> Accounting.pair p marker ~ts | None -> ()
  in
  { Machine.spend; count }

(* An untraced session only pairs exits with entries. *)
let pairing_sink pairing =
  {
    Machine.spend = (fun ~id:_ ~label:_ ~cat:_ ~cycles:_ ~now:_ -> ());
    count =
      (fun ~id:_ ~marker ~label:_ ~cat:_ ~now ->
        Accounting.pair pairing marker ~ts:(Cycles.to_int now));
  }

let pp_timeline ppf events =
  List.iter
    (fun (e : Span.event) ->
      match e.kind with
      | Span.Complete dur ->
          Format.fprintf ppf "%12s  +%-6d %s@."
            (Format.asprintf "%a" Cycles.pp (Cycles.of_int (e.ts + dur)))
            dur e.name
      | Span.Instant | Span.Value _ -> ())
    events

(* [interned f] is [f] memoized by its string key, so an observer
   event looks its track or name up without building a string. *)
let interned f =
  let ids = Hashtbl.create 16 in
  fun key ->
    match Hashtbl.find ids key with
    | id -> id
    | exception Not_found ->
        let id = f key in
        Hashtbl.add ids key id;
        id

(* The engine observer's tracks and names in a tracer, each interned
   once per machine. *)
type sim_ids = {
  proc : string -> int; (* a process's track *)
  mailbox : string -> int; (* a mailbox's track *)
  contention : string -> int; (* "contention:<resource>" *)
  spawn : int;
  blocked : int;
}

let sim_ids ~prefix tracer =
  {
    proc = interned (fun name -> Tracer.track tracer (prefix ^ name));
    mailbox = interned (fun mb -> Tracer.track tracer (prefix ^ "mb:" ^ mb));
    contention =
      interned (fun resource -> Tracer.name tracer ("contention:" ^ resource));
    spawn = Tracer.name tracer "spawn";
    blocked = Tracer.name tracer "blocked";
  }

let attach live m =
  let idx = List.length live.machines in
  let pairing = Accounting.pairing () in
  live.machines <- (m, pairing) :: live.machines;
  let prefix = if idx = 0 then "" else Printf.sprintf "m%d:" idx in
  let metrics = live.cell_metrics in
  Machine.attach m
    (Some
       (match live.tracer with
       | Some tracer -> machine_sink ~pairing ~track:(prefix ^ "cpu") tracer
       | None -> pairing_sink pairing));
  let traced =
    Option.map (fun tracer -> (tracer, sim_ids ~prefix tracer)) live.tracer
  in
  (* Park times by pid (dense per sim) so blocked spans pair correctly
     even when several processes share a display name. *)
  let parked = ref [||] in
  Sim.set_observer (Machine.sim m)
    (Some
       {
         Sim.on_spawn =
           (fun ~id:_ ~name ~at ->
             (match traced with
             | Some (tracer, ids) ->
                 Tracer.instant tracer ~track:(ids.proc name) ~cat:Span.Sched
                   ~name:ids.spawn ~ts:at
             | None -> ());
             Metrics.incr metrics "sim_processes_spawned_total");
         on_park =
           (fun ~id ~name:_ ~at ->
             if Option.is_some traced then (slots parked id).(id) <- at);
         on_wake =
           (fun ~id ~name ~at ->
             match traced with
             | Some (tracer, ids) when id < Array.length !parked ->
                 let t0 = !parked.(id) in
                 !parked.(id) <- -1;
                 if t0 >= 0 && at > t0 then
                   Tracer.complete tracer ~track:(ids.proc name)
                     ~cat:Span.Sched ~name:ids.blocked ~ts:t0 ~dur:(at - t0)
             | _ -> ());
         on_contention =
           (fun ~resource ~proc ~at ~waited ->
             (match traced with
             | Some (tracer, ids) ->
                 Tracer.complete tracer ~track:(ids.proc proc) ~cat:Span.Sched
                   ~name:(ids.contention resource) ~ts:at ~dur:waited
             | None -> ());
             Metrics.observe metrics
               ~labels:[ ("resource", resource) ]
               "sim_contention_wait_cycles" (float_of_int waited));
         on_queue_depth =
           (fun ~mailbox ~at ~depth ->
             (match traced with
             | Some (tracer, ids) ->
                 Tracer.value tracer ~track:(ids.mailbox mailbox) ~cat:Span.Io
                   ~name:(Tracer.name tracer mailbox) ~ts:at ~value:depth
             | None -> ());
             Metrics.observe metrics
               ~labels:[ ("mailbox", mailbox) ]
               "sim_mailbox_depth" (float_of_int depth));
       })

(* A finished cell's accounting rows, machines named m0, m1, ... in
   build order and sorted as strings, and its spend_cycles_total by
   declared category, both read from the machines' counters. A category
   some op was spent in, if only for 0 cycles, gets a series. *)
let snapshot live ~label =
  let by_cat = Array.make (Array.length Span.categories) (-1) in
  let rows =
    List.rev live.machines
    |> List.mapi (fun i (m, pairing) ->
           let machine = Printf.sprintf "m%d" i and ops = Machine.op_cycles m in
           List.iter
             (fun (o : Accounting.spent) ->
               let c = Span.category_index o.cat in
               by_cat.(c) <- Int.max by_cat.(c) 0 + o.cycles)
             ops;
           ( machine,
             Accounting.rows ~cell:label ~machine ~markers:(Machine.markers m)
               ~ops pairing ))
  in
  Array.iteri
    (fun c cycles ->
      if cycles >= 0 then
        Metrics.incr live.cell_metrics
          ~labels:[ ("category", Span.category_to_string Span.categories.(c)) ]
          ~by:cycles "spend_cycles_total")
    by_cat;
  List.stable_sort (fun (a, _) (b, _) -> String.compare a b) rows
  |> List.concat_map snd

(* --- session lifecycle --------------------------------------------- *)

let enable ~trace ~context () =
  locked (fun () ->
      recorded := [];
      global := Metrics.create ());
  context_name := context;
  Atomic.set map_seq 0;
  tracing := trace;
  enabled := true

and disable () = enabled := false

let capture ~label f =
  if not !enabled then (f (), None)
  else
    match Domain.DLS.get live_key with
    | Some _ ->
        (* Nested capture (e.g. an experiment's own Runner.map inside a
           traced cell): attribute everything to the enclosing cell. *)
        (f (), None)
    | None ->
        let live =
          {
            tracer =
              (if !tracing then Some (Tracer.create ~capacity:ring_capacity ())
               else None);
            cell_metrics = Metrics.create ();
            machines = [];
          }
        in
        Domain.DLS.set live_key (Some live);
        (* Only machines this cell builds on this domain are observed. *)
        Machine.set_create_hook (Some (attach live));
        (* cell_wall_seconds is host-side profiling, never byte-compared *)
        (* lint: allow R2 — host-side wall-clock profiling gauge *)
        let t0 = Unix.gettimeofday () in
        (* Detaching the cell's machines freezes its ring: a machine
           that outlives the cell records nothing more into it. *)
        let finish () =
          Machine.set_create_hook None;
          Domain.DLS.set live_key None;
          List.iter
            (fun (m, _) ->
              Machine.attach m None;
              Sim.set_observer (Machine.sim m) None)
            live.machines
        in
        let result = try Ok (f ()) with e -> Error e in
        finish ();
        (match result with
        | Error e -> raise e
        | Ok v ->
            Metrics.set_gauge live.cell_metrics
              ~labels:[ ("cell", label) ]
              "cell_wall_seconds"
              (* lint: allow R2 — same host-side profiling gauge as above *)
              (Unix.gettimeofday () -. t0);
            let rows = snapshot live ~label in
            let trace =
              match live.tracer with Some t -> t | None -> Tracer.create ()
            in
            (v, Some { label; trace; metrics = live.cell_metrics; rows }))

let record_cells captured =
  if !enabled then
    locked (fun () ->
        Array.iter
          (function
            | None -> ()
            | Some c ->
                recorded := c :: !recorded;
                Metrics.merge_into ~dst:!global c.metrics)
          captured)

let cells () = locked (fun () -> List.rev !recorded)

let processes () =
  List.mapi
    (fun i (c : cell) ->
      { Export.pid = i; name = c.label; trace = c.trace })
    (cells ())

let metrics () = locked (fun () -> !global)

let note_memo_hit () =
  if !enabled then
    locked (fun () -> Metrics.incr !global "runner_memo_hits_total")

let note_memo_miss () =
  if !enabled then
    locked (fun () -> Metrics.incr !global "runner_memo_misses_total")
