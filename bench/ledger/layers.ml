(* The traced run (--trace 1): per-layer metrics, each named for the layer
   whose cost it isolates. They cover every workload at once, since some
   compare two workloads (runner.speedup is regen against regen-par).
   Every child process and every replica call gets a bench-side span.
   README.md says which end-to-end metric each should move, and where. *)

let declared ~ids =
  let each fmt unit_ keys =
    List.map (fun k -> (Printf.sprintf fmt k, unit_)) keys
  in
  [
    ("runner.speedup", "x");
    ("runner.cpu_overhead", "x");
    ("runner.memo_hits", "count");
    ("runner.memo_misses", "count");
    ("runner.critical_path_s", "s");
  ]
  @ each "experiment.%s.wall_s" "s" ids
  @ each "engine.events.%s" "count" Replica.simulated
  @ each "engine.host_ns_per_event.%s" "ns" Replica.simulated
  @ each "engine.micro.%s_ns" "ns" (List.map fst Replica.micros)
  @ [
      ("machine.spend_spans", "count");
      ("machine.count_markers", "count");
      ("machine.spans_per_event", "spans/event");
      ("hypervisor.host_ns_per_exit", "ns");
      ("obs.trace_overhead_x", "x");
      ("obs.stat_overhead_x", "x");
    ]
  @ each "fleet.host_ms.vms%s" "ms" (List.map string_of_int Replica.fleet_sizes)
  @ [
      ("fleet.scaling_exponent", "1");
      ("fleet.host_us_per_quantum", "us");
      ("migrate.host_us_per_page", "us");
      ("migrate.events_per_page", "events/page");
      ("vswitch.host_ns_per_request", "ns");
      ("vswitch.events_per_request", "events/req");
    ]
  @ each "platform.construct_us.%s" "us"
      (List.map (fun (c, _, _) -> c) Replica.configs)
  @ [ ("explore.host_ms_per_point", "ms") ]
  @ each "gc.minor_words_per_event.%s" "words/event" Replica.simulated
  @ each "gc.major_words_per_event.%s" "words/event" Replica.simulated
  @ each "gc.top_heap_mb.%s" "MB" Replica.simulated

(* Index of the first [sub] in [s] at or after [from]. *)
let rec find_sub ~sub s from =
  let n = String.length sub in
  match String.index_from_opt s from sub.[0] with
  | None -> None
  | Some i ->
      let rec same k = k = n || (s.[i + k] = sub.[k] && same (k + 1)) in
      if i + n <= String.length s && same 0 then Some i
      else find_sub ~sub s (i + 1)

let count_sub ~sub s =
  let rec go from acc =
    match find_sub ~sub s from with
    | None -> acc
    | Some i -> go (i + String.length sub) (acc + 1)
  in
  go 0 0

(* Sum of the per-cell "dropped_events" counts in a Chrome trace export. *)
let dropped_events json =
  let key = "\"dropped_events\":" in
  let rec go from acc =
    match find_sub ~sub:key json from with
    | None -> acc
    | Some i ->
        let start = i + String.length key in
        let stop = ref start in
        while
          !stop < String.length json
          && json.[!stop] >= '0'
          && json.[!stop] <= '9'
        do
          incr stop
        done;
        go !stop (acc + int_of_string (String.sub json start (!stop - start)))
  in
  go 0 0

type t = {
  metrics : (string * string * float) list;  (** Name, unit, value. *)
  attempted : int;
  failed : int;
  dropped : int;  (** Trace events the program's rings dropped. *)
}

let run ~armvirt ~golden_dir ~seed ~ids =
  let attempted = ref 0 and failed = ref 0 and dropped = ref 0 in
  let note ok =
    incr attempted;
    if not ok then incr failed
  in
  let values = ref [] in
  let set name v = values := (name, v) :: !values in
  let cli ~layer args =
    Span.with_ ~layer (String.concat " " args) (fun () ->
        let o = Proc.run ~capture:true armvirt args in
        note (Proc.ok o);
        o)
  in
  let traced_cli ~layer args =
    let o = cli ~layer args in
    dropped := !dropped + dropped_events o.Proc.stdout;
    o
  in
  (* Spans, instants and exit markers in traced invocations' exports. *)
  let chrome_counts ~layer invocations =
    List.fold_left
      (fun (spans, markers, exits) (inv : Workload.invocation) ->
        let s = (traced_cli ~layer inv.Workload.args).Proc.stdout in
        ( spans + count_sub ~sub:"\"ph\":\"X\"" s,
          markers + count_sub ~sub:"\"ph\":\"i\"" s,
          exits + count_sub ~sub:".exit/" s ))
      (0, 0, 0) invocations
  in
  (* One pass of a workload, checked like an end-to-end pass. *)
  let pass ~layer name =
    let w = Option.get (Workload.find name) in
    let invs = w.Workload.invocations ~ids ~seed in
    Span.with_ ~layer name (fun () ->
        let p = Workload.run_pass ~armvirt invs in
        let expected =
          Workload.expected
            ~golden:(Golden.load ~dir:golden_dir w.Workload.golden)
            ~seed invs p.Workload.outcomes
        in
        attempted := !attempted + List.length invs;
        failed := !failed + Workload.failures ~expected p;
        p)
  in
  let replica name =
    Span.with_ ~layer:"bench" ("replica " ^ name) (fun () ->
        let o =
          Proc.run ~capture:true Sys.executable_name
            [ "--replica"; name; "--seed"; string_of_int seed ]
        in
        note (Proc.ok o);
        List.filter_map
          (fun line ->
            match String.split_on_char ' ' line with
            | "span" :: layer :: start :: stop :: call ->
                Span.add ~layer (String.concat " " call)
                  ~start:(float_of_string start) ~stop:(float_of_string stop);
                None
            | [ key; value ] -> Some (key, float_of_string value)
            | _ -> None)
          (String.split_on_char '\n' o.Proc.stdout))
  in
  Span.with_ ~layer:"bench" "traced run" (fun () ->
      (* runner: alternating regen and regen-par passes *)
      let pairs =
        List.init 2 (fun _ ->
            let serial = pass ~layer:"runner" "regen" in
            (serial, pass ~layer:"runner" "regen-par"))
      in
      let med f = Workload.median (List.map f pairs) in
      set "runner.speedup"
        (med (fun (s, _) -> s.Workload.wall_s)
        /. med (fun (_, p) -> p.Workload.wall_s));
      set "runner.cpu_overhead"
        (med (fun (_, p) -> p.Workload.cpu_s)
        /. med (fun (s, _) -> s.Workload.cpu_s));
      let verbose =
        cli ~layer:"runner" (("run" :: ids) @ [ "--jobs"; "1"; "--verbose" ])
      in
      List.iter
        (fun line ->
          match
            Scanf.sscanf line "memo: %d hits, %d misses%!" (fun h m -> (h, m))
          with
          | hits, misses ->
              set "runner.memo_hits" (float_of_int hits);
              set "runner.memo_misses" (float_of_int misses)
          | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ())
        (String.split_on_char '\n' verbose.Proc.stdout);
      (* experiment: each id alone *)
      let walls =
        List.map
          (fun id ->
            let o = cli ~layer:"experiment" [ "run"; id; "--jobs"; "1" ] in
            set (Printf.sprintf "experiment.%s.wall_s" id) o.Proc.wall_s;
            o.Proc.wall_s)
          ids
      in
      set "runner.critical_path_s" (List.fold_left Float.max 0. walls);
      (* machine: the world-switch invocations at full size, traced *)
      let spans, markers, exits =
        chrome_counts ~layer:"machine"
          (Workload.world_switch ~iterations:"1024" ~transactions:"20000"
             ~micro_flags:[ "--trace"; "-" ] ~rr_flags:[ "--trace"; "-" ] ~ids
             ~seed)
      in
      set "machine.spend_spans" (float_of_int spans);
      set "machine.count_markers" (float_of_int markers);
      (* obs: each world-switch-traced invocation right after the same
         invocation without its flag *)
      let timings =
        List.map2
          (fun (off : Workload.invocation) (on : Workload.invocation) ->
            let off_s = (cli ~layer:"obs" off.Workload.args).Proc.wall_s in
            let on_s = (traced_cli ~layer:"obs" on.Workload.args).Proc.wall_s in
            (List.hd off.Workload.args, off_s, on_s))
          (Workload.world_switch ~iterations:"128" ~transactions:"2500"
             ~micro_flags:[] ~rr_flags:[] ~ids ~seed)
          ((Option.get (Workload.find "world-switch-traced")).Workload.invocations
             ~ids ~seed)
      in
      let overhead cmd =
        let sum f =
          List.fold_left
            (fun acc ((c, _, _) as t) -> if c = cmd then acc +. f t else acc)
            0. timings
        in
        sum (fun (_, _, on) -> on) /. sum (fun (_, off, _) -> off)
      in
      set "obs.trace_overhead_x" (overhead "rr");
      set "obs.stat_overhead_x" (overhead "micro");
      (* explore *)
      let explore = pass ~layer:"explore" "explore-lhs" in
      set "explore.host_ms_per_point"
        (explore.Workload.wall_s *. 1e3
        /. float_of_int Workload.explore_points);
      (* in-process replicas; keys they print that are declared metric
         names pass straight through *)
      let replicas = List.map (fun name -> (name, replica name)) Replica.names in
      List.iter (fun (_, kvs) -> List.iter (fun (k, v) -> set k v) kvs) replicas;
      let get name key =
        Option.value
          (List.assoc_opt key (List.assoc name replicas))
          ~default:Float.nan
      in
      List.iter
        (fun name ->
          let events = get name "events" in
          set ("engine.events." ^ name) events;
          set ("engine.host_ns_per_event." ^ name)
            (get name "seconds" *. 1e9 /. events))
        Replica.simulated;
      set "machine.spans_per_event"
        (float_of_int spans /. get "world-switch" "events");
      set "hypervisor.host_ns_per_exit"
        (get "world-switch" "seconds" *. 1e9 /. float_of_int exits);
      set "fleet.host_us_per_quantum"
        (get "fleet-storm" "seconds" *. 1e6 /. get "fleet-storm" "events");
      set "migrate.host_us_per_page"
        (get "migrate" "seconds" *. 1e6 /. get "migrate" "pages");
      set "migrate.events_per_page"
        (get "migrate" "events" /. get "migrate" "pages");
      set "vswitch.host_ns_per_request"
        (get "cluster" "loadgen_seconds" *. 1e9 /. get "cluster" "requests");
      set "vswitch.events_per_request"
        (get "cluster" "loadgen_events" /. get "cluster" "requests"));
  (* A dropped trace event is a silent loss: the run fails. *)
  if !dropped > 0 then incr failed;
  let metrics =
    List.filter_map
      (fun (name, unit_) ->
        match List.assoc_opt name !values with
        | Some v when Float.is_finite v -> Some (name, unit_, v)
        | _ ->
            incr failed;
            None)
      (declared ~ids)
  in
  { metrics; attempted = !attempted; failed = !failed; dropped = !dropped }
