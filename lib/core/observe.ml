module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Span = Armvirt_obs.Span
module Tracer = Armvirt_obs.Tracer
module Metrics = Armvirt_obs.Metrics
module Export = Armvirt_obs.Export
module Accounting = Armvirt_obs.Accounting

type cell = {
  label : string;
  events : Span.event list;
  dropped : int;
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

let machine_sink ?pairing ~track tracer =
  let spend ~label ~cat ~cycles ~now =
    let now = Cycles.to_int now in
    Tracer.complete tracer ~track ~cat ~name:label ~ts:(now - cycles)
      ~dur:cycles
  in
  let count ~marker ~label ~cat ~now =
    let ts = Cycles.to_int now in
    Tracer.instant tracer ~track ~cat ~name:label ~ts;
    match pairing with Some p -> Accounting.pair p marker ~ts | None -> ()
  in
  { Machine.spend; count }

(* An untraced session only pairs exits with entries. *)
let pairing_sink pairing =
  {
    Machine.spend = (fun ~label:_ ~cat:_ ~cycles:_ ~now:_ -> ());
    count =
      (fun ~marker ~label:_ ~cat:_ ~now ->
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
  (* Park times keyed by pid so blocked spans pair correctly even when
     several processes share a display name. *)
  let parked : (int, int) Hashtbl.t = Hashtbl.create 32 in
  Sim.set_observer (Machine.sim m)
    (Some
       {
         Sim.on_spawn =
           (fun ~id:_ ~name ~at ->
             (match live.tracer with
             | Some tracer ->
                 Tracer.instant tracer ~track:(prefix ^ name) ~cat:Span.Sched
                   ~name:"spawn" ~ts:at
             | None -> ());
             Metrics.incr metrics "sim_processes_spawned_total");
         on_park =
           (fun ~id ~name:_ ~at ->
             if Option.is_some live.tracer then Hashtbl.replace parked id at);
         on_wake =
           (fun ~id ~name ~at ->
             match (live.tracer, Hashtbl.find_opt parked id) with
             | None, _ | _, None -> ()
             | Some tracer, Some t0 ->
                 Hashtbl.remove parked id;
                 if at > t0 then
                   Tracer.complete tracer ~track:(prefix ^ name)
                     ~cat:Span.Sched ~name:"blocked" ~ts:t0 ~dur:(at - t0));
         on_contention =
           (fun ~resource ~proc ~at ~waited ->
             (match live.tracer with
             | Some tracer ->
                 Tracer.complete tracer ~track:(prefix ^ proc) ~cat:Span.Sched
                   ~name:("contention:" ^ resource) ~ts:at ~dur:waited
             | None -> ());
             Metrics.observe metrics
               ~labels:[ ("resource", resource) ]
               "sim_contention_wait_cycles" (float_of_int waited));
         on_queue_depth =
           (fun ~mailbox ~at ~depth ->
             (match live.tracer with
             | Some tracer ->
                 Tracer.value tracer ~track:(prefix ^ "mb:" ^ mailbox)
                   ~cat:Span.Io ~name:mailbox ~ts:at ~value:depth
             | None -> ());
             Metrics.observe metrics
               ~labels:[ ("mailbox", mailbox) ]
               "sim_mailbox_depth" (float_of_int depth));
       })

(* A finished cell's accounting rows, machines named m0, m1, ... in
   build order and sorted as strings, and its spend_cycles_total by
   category, both read from the machines' counters. *)
let snapshot live ~label =
  List.rev live.machines
  |> List.mapi (fun i (m, pairing) ->
         let machine = Printf.sprintf "m%d" i and ops = Machine.op_cycles m in
         List.iter
           (fun (op, cycles) ->
             Metrics.incr live.cell_metrics
               ~labels:
                 [ ("category", Span.category_to_string (Span.of_label op)) ]
               ~by:cycles "spend_cycles_total")
           ops;
         ( machine,
           Accounting.rows ~cell:label ~machine ~markers:(Machine.markers m)
             ~ops pairing ))
  |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b)
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
        let finish () =
          Machine.set_create_hook None;
          Domain.DLS.set live_key None
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
            let events, dropped =
              match live.tracer with
              | Some t -> (Tracer.events t, Tracer.dropped t)
              | None -> ([], 0)
            in
            (v, Some { label; events; dropped; metrics = live.cell_metrics; rows }))

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
      { Export.pid = i; name = c.label; events = c.events; dropped = c.dropped })
    (cells ())

let metrics () = locked (fun () -> !global)

let note_memo_hit () =
  if !enabled then
    locked (fun () -> Metrics.incr !global "runner_memo_hits_total")

let note_memo_miss () =
  if !enabled then
    locked (fun () -> Metrics.incr !global "runner_memo_misses_total")
