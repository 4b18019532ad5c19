(* Tests for Armvirt_obs (ring, spans, metrics, exporters, tables) and the
   Observe/Runner tracing glue: the machine sink and timeline printer,
   golden files for the Chrome and Prometheus formats, histogram bucket
   boundaries, export determinism across --jobs levels, the domain-local
   create hook, and the traced-off = seed invariant. *)

module Span = Armvirt_obs.Span
module Tracer = Armvirt_obs.Tracer
module Metrics = Armvirt_obs.Metrics
module Export = Armvirt_obs.Export
module Json = Armvirt_obs.Json
module Observe = Armvirt_core.Observe
module Runner = Armvirt_core.Runner
module Platform = Armvirt_core.Platform
module Machine = Armvirt_arch.Machine
module Marker = Armvirt_obs.Marker
module Sim = Armvirt_engine.Sim
module Rng = Armvirt_engine.Rng
module W = Armvirt_workloads

(* --- The ring -------------------------------------------------------- *)

(* [n] instants at times 1 .. n on one track. *)
let record_instants tracer n =
  let track = Tracer.track tracer "t" and name = Tracer.name tracer "e" in
  for ts = 1 to n do
    Tracer.instant tracer ~track ~cat:Span.Other ~name ~ts
  done

let times tracer = List.init (Tracer.length tracer) (Tracer.ts tracer)

let test_ring_unbounded_chronological () =
  let r = Tracer.create () in
  record_instants r 1000;
  Alcotest.(check int) "length" 1000 (Tracer.length r);
  Alcotest.(check int) "dropped" 0 (Tracer.dropped r);
  Alcotest.(check (list int)) "oldest first" (List.init 1000 (fun i -> i + 1))
    (times r)

let test_ring_capped_drops_oldest () =
  let r = Tracer.create ~capacity:4 () in
  record_instants r 10;
  Alcotest.(check int) "length at cap" 4 (Tracer.length r);
  Alcotest.(check int) "dropped" 6 (Tracer.dropped r);
  Alcotest.(check (list int)) "keeps newest, in order" [ 7; 8; 9; 10 ]
    (times r)

let test_ring_rejects_zero_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Tracer.create: capacity < 1") (fun () ->
      ignore (Tracer.create ~capacity:0 ()))

(* An id is an index into one tracer's interned strings: one the tracer
   never handed out would decode as another event's track or name. *)
let test_ring_rejects_foreign_ids () =
  let r = Tracer.create () in
  let track = Tracer.track r "cpu" and name = Tracer.name r "step" in
  Alcotest.(check int) "interning is idempotent" track (Tracer.track r "cpu");
  List.iter
    (fun (what, track, name) ->
      Alcotest.check_raises what
        (Invalid_argument "Tracer: track or name not interned by this tracer")
        (fun () -> Tracer.instant r ~track ~cat:Span.Other ~name ~ts:0))
    [ ("track", track + 1, name); ("name", track, name + 1);
      ("negative", -1, name) ];
  Alcotest.(check int) "nothing recorded" 0 (Tracer.length r)

(* --- Span classification ------------------------------------------- *)

(* The rules the declarations replaced, kept as the differential
   tests' oracle (test/reference_span.ml). *)
let test_span_of_label () =
  let check label expect =
    Alcotest.(check string) label
      (Span.category_to_string expect)
      (Span.category_to_string (Reference_span.of_label label))
  in
  check "kvm_arm.vcpu_resume" Span.Vmexit;
  check "arm.hvc_to_el2" Span.Trap;
  check "netperf.irq_delivery" Span.Irq;
  check "netperf.host_rx_path" Span.Io;
  check "coldstart.page_map" Span.Stage2;
  check "xen_arm.dom0_upcall" Span.Vmexit;
  (* Table III register classes carry no lane needle: "EL2 Virtual
     Memory Regs" is other, like its siblings. *)
  check "arm.save.EL2 Virtual Memory Regs" Span.Other;
  check "arm.restore.EL2 Virtual Memory Regs" Span.Other;
  check "completely.unknown" Span.Other

let test_span_category_names () =
  (* The trace exports' "cat" field: stable, distinct, lowercase. *)
  Alcotest.(check (list string)) "names"
    [ "migrate"; "trap"; "vmexit"; "irq"; "stage2"; "io"; "sched"; "other" ]
    (List.map Span.category_to_string
       Span.[ Migrate; Trap; Vmexit; Irq; Stage2; Io; Sched; Other ])

(* Position of the first occurrence of [needle] in [s], or -1. *)
let index_of s needle =
  let n = String.length needle and m = String.length s in
  let rec go i =
    if i + n > m then -1
    else if String.sub s i n = needle then i
    else go (i + 1)
  in
  go 0

(* --- The machine sink and the timeline printer ---------------------- *)

let arm_machine sim =
  let module Cost_model = Armvirt_arch.Cost_model in
  Machine.create sim ~cost:(Cost_model.Arm Cost_model.arm_default) ~num_cpus:2

(* A literal three-step path: spends become complete spans in recording
   order, each completing at [ts + dur]; a count becomes an instant the
   printer skips; and detaching stops recording. *)
let test_trace_records_spends () =
  let sim = Sim.create () in
  let machine = arm_machine sim in
  let tracer = Tracer.create () in
  Machine.attach machine (Some (Observe.machine_sink ~track:"cpu" tracer));
  let a = Machine.op machine Other "step.a"
  and b = Machine.op machine Other "step.b" in
  let hypercall =
    Machine.marker machine (Marker.op ~hyp:"kvm_arm" Trap "hypercall")
  in
  Sim.spawn sim ~name:"worker" (fun () ->
      Machine.spend a 100;
      Machine.spend b 50;
      Machine.count hypercall;
      Machine.spend a 25);
  Sim.run sim;
  let events = Tracer.events tracer in
  Alcotest.(check (list (triple string int int)))
    "(name, ts, dur) in recording order"
    [
      ("step.a", 0, 100); ("step.b", 100, 50); ("kvm_arm.hypercall", 150, 0);
      ("step.a", 150, 25);
    ]
    (List.map (fun (e : Span.event) -> (e.name, e.ts, Span.duration e)) events);
  Alcotest.(check string) "timeline: completion time, cost, label"
    "         100  +100    step.a\n\
    \         150  +50     step.b\n\
    \         175  +25     step.a\n"
    (Format.asprintf "%a" Observe.pp_timeline events);
  Machine.attach machine None;
  Sim.spawn sim ~name:"worker2" (fun () ->
      Machine.spend (Machine.op machine Other "step.c") 10);
  Sim.run sim;
  Alcotest.(check int) "detached: no longer recording" 4
    (List.length (Tracer.events tracer))

(* The same path inside a capture, traced and untraced: the cell's
   spend_cycles_total and exit-accounting rows come from the machine's
   counters when the cell finishes, so both sessions give the same
   metric (a 0-cycle op still creates its series) and rows, and only
   the traced one records events. *)
let test_capture_reads_counters () =
  let cell_of ~trace =
    Observe.enable ~trace ~context:"spends" ();
    Fun.protect ~finally:Observe.disable (fun () ->
        match
          snd
            (Observe.capture ~label:"spends#0.0" (fun () ->
                 let sim = Sim.create () in
                 let machine = arm_machine sim in
                 let a = Machine.op machine Other "step.a"
                 and b = Machine.op machine Other "step.b"
                 and resume = Machine.op machine Vmexit "kvm_arm.vcpu_resume" in
                 let exit =
                   Machine.marker machine
                     (Marker.exit ~hyp:"kvm_arm" ~reason:Marker.Hvc ~pcpu:1)
                 and entry =
                   Machine.marker machine (Marker.entry ~hyp:"kvm_arm" ~pcpu:1 ())
                 in
                 Sim.spawn sim ~name:"worker" (fun () ->
                     Machine.count exit;
                     Machine.spend a 100;
                     Machine.spend b 50;
                     Machine.spend resume 0;
                     Machine.count entry;
                     Machine.spend a 25);
                 Sim.run sim))
        with
        | Some c -> c
        | None -> Alcotest.fail "capture returned no cell")
  in
  let traced = cell_of ~trace:true and untraced = cell_of ~trace:false in
  List.iter
    (fun (c : Observe.cell) ->
      Alcotest.(check (list (pair string int)))
        "spend_cycles_total by category"
        [ ("other", 175); ("vmexit", 0) ]
        (List.map
           (fun cat ->
             ( cat,
               Metrics.counter_value c.metrics
                 ~labels:[ ("category", cat) ]
                 "spend_cycles_total" ))
           [ "other"; "vmexit" ]);
      Alcotest.(check bool) "the 0-cycle series exists" true
        (index_of
           (Format.asprintf "%a" Metrics.pp_prometheus c.metrics)
           {|spend_cycles_total{category="vmexit"} 0|}
        >= 0);
      match c.rows with
      | [ vm ] ->
          Alcotest.(check (list (triple string int int)))
            "one hvc exit, paired 150 cycles later"
            [ ("hvc", 1, 150) ]
            (List.map
               (fun (r, n, (h : Armvirt_obs.Accounting.hist)) -> (r, n, h.sum))
               vm.exits);
          Alcotest.(check int) "entries" 1 vm.entries;
          Alcotest.(check int) "hypervisor cycles" 175 vm.hyp_cycles
      | rows -> Alcotest.failf "expected one row, got %d" (List.length rows))
    [ traced; untraced ];
  Alcotest.(check int) "traced: six machine events and the spawn" 7
    (Tracer.length traced.trace);
  Alcotest.(check int) "untraced: no events" 0 (Tracer.length untraced.trace)

(* Many spends completing at one instant keep their recording order. *)
let test_trace_events_chronological () =
  let sim = Sim.create () in
  let machine = arm_machine sim in
  let tracer = Tracer.create () in
  Machine.attach machine (Some (Observe.machine_sink ~track:"cpu" tracer));
  let labels = List.init 1000 (Printf.sprintf "op%d") in
  let ops = List.map (Machine.op machine Other) labels in
  Sim.spawn sim ~name:"worker" (fun () ->
      List.iter (fun op -> Machine.spend op 0) ops);
  Sim.run sim;
  let events = Tracer.events tracer in
  Alcotest.(check (list string)) "recording order preserved" labels
    (List.map (fun (e : Span.event) -> e.name) events);
  Alcotest.(check bool) "all at t=0" true
    (List.for_all (fun (e : Span.event) -> e.ts = 0) events)

(* Once the ring has grown and the sink has seen each op, a traced
   Machine.spend records three ints: the same spends allocate exactly as
   many minor words through Observe.machine_sink as with no sink, on the
   growing ring and at the cap, measured as in "session costs
   engine-only runs nothing". One process per run on one sim and one
   machine keeps the engine's own allocation identical across runs. *)
let test_traced_spend_allocates_nothing () =
  let sim = Sim.create () in
  let machine = arm_machine sim in
  let ops =
    Array.init 8 (fun i ->
        Machine.op machine Other (Printf.sprintf "kvm_arm.step%d" i))
  in
  let run n =
    Sim.spawn sim ~name:"worker" (fun () ->
        for i = 1 to n do
          Machine.spend ops.(i land 7) (1 + (i land 15))
        done);
    let before = Gc.minor_words () in
    Sim.run sim;
    Gc.minor_words () -. before
  in
  ignore (run 8);
  let untraced = run 200 in
  let traced tracer ~warm =
    Machine.attach machine (Some (Observe.machine_sink ~track:"cpu" tracer));
    ignore (run warm);
    run 200
  in
  (* 300 warm-up spends grow the ring to 512 slots; 200 more fit. *)
  Alcotest.(check (float 0.)) "growing ring" untraced
    (traced (Tracer.create ()) ~warm:300);
  let capped = Tracer.create ~capacity:64 () in
  Alcotest.(check (float 0.)) "at the cap" untraced (traced capped ~warm:100);
  Alcotest.(check int) "the capped ring dropped" 236 (Tracer.dropped capped)

(* --- Metrics: histogram bucket boundaries -------------------------- *)

let hist_buckets m name =
  match Metrics.histogram m name with
  | Some h -> h.Metrics.buckets
  | None -> Alcotest.fail "histogram missing"

let test_histogram_boundaries () =
  let m = Metrics.create () in
  (* Exactly on a power of two stays in that bucket; the next
     representable float above spills into the next one. *)
  Metrics.observe m "h" 1.0;
  Metrics.observe m "h" 2.0;
  Metrics.observe m "h" (Float.succ 2.0);
  Metrics.observe m "h" 1024.0;
  Metrics.observe m "h" 1025.0;
  Metrics.observe m "h" 0.0;
  Alcotest.(check (list (pair (float 0.0) int)))
    "bucket assignment"
    [ (1.0, 2); (2.0, 1); (4.0, 1); (1024.0, 1); (2048.0, 1) ]
    (hist_buckets m "h");
  (match Metrics.histogram m "h" with
  | Some h ->
      Alcotest.(check int) "count" 6 h.Metrics.count;
      Alcotest.(check (float 1e-9)) "sum" 2054.0 h.Metrics.sum
  | None -> Alcotest.fail "histogram missing");
  Alcotest.check_raises "negative observation"
    (Invalid_argument "Metrics.observe: negative observation") (fun () ->
      Metrics.observe m "h" (-1.0))

let test_histogram_huge_values_saturate () =
  let m = Metrics.create () in
  Metrics.observe m "h" 1e30;
  Alcotest.(check (list (pair (float 0.0) int)))
    "top bucket" [ (4.611686018427387904e18, 1) ] (hist_buckets m "h")

(* --- Metrics: counters, gauges, merge ------------------------------ *)

let test_counters_and_gauges () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.incr m ~by:4 "c";
  Metrics.incr m ~labels:[ ("k", "v") ] "c";
  Alcotest.(check int) "unlabelled" 5 (Metrics.counter_value m "c");
  Alcotest.(check int) "labelled" 1
    (Metrics.counter_value m ~labels:[ ("k", "v") ] "c");
  Alcotest.(check int) "absent" 0 (Metrics.counter_value m "nope");
  Metrics.set_gauge m "g" 1.5;
  Metrics.set_gauge m "g" 2.5;
  Alcotest.(check (option (float 1e-9))) "last write wins" (Some 2.5)
    (Metrics.gauge_value m "g");
  Alcotest.(check (list string)) "names" [ "c"; "g" ] (Metrics.names m)

let test_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a ~by:2 "c";
  Metrics.incr b ~by:3 "c";
  Metrics.set_gauge b "g" 7.0;
  Metrics.observe a "h" 1.0;
  Metrics.observe b "h" 3.0;
  Metrics.merge_into ~dst:a b;
  Alcotest.(check int) "counters add" 5 (Metrics.counter_value a "c");
  Alcotest.(check (option (float 1e-9))) "gauge overwrites" (Some 7.0)
    (Metrics.gauge_value a "g");
  match Metrics.histogram a "h" with
  | Some h ->
      Alcotest.(check int) "histogram counts add" 2 h.Metrics.count;
      Alcotest.(check (float 1e-9)) "sums add" 4.0 h.Metrics.sum
  | None -> Alcotest.fail "histogram missing"

(* --- Golden: Prometheus text format -------------------------------- *)

let sample_registry () =
  let m = Metrics.create () in
  (* Labels deliberately inserted in non-alphabetical order: rendering
     must sort them. *)
  Metrics.incr m ~by:7 ~labels:[ ("hyp", "kvm"); ("arch", "arm") ] "traps";
  Metrics.incr m ~by:2 ~labels:[ ("arch", "x86"); ("hyp", "kvm") ] "traps";
  Metrics.set_gauge m "depth" 3.0;
  Metrics.observe m "wait" 1.0;
  Metrics.observe m "wait" 5.0;
  m

let prometheus_golden =
  "# TYPE traps counter\n\
   traps{arch=\"arm\",hyp=\"kvm\"} 7\n\
   traps{arch=\"x86\",hyp=\"kvm\"} 2\n\
   # TYPE depth gauge\n\
   depth 3.0\n\
   # TYPE wait histogram\n\
   wait_bucket{le=\"1\"} 1\n\
   wait_bucket{le=\"2\"} 1\n\
   wait_bucket{le=\"4\"} 1\n\
   wait_bucket{le=\"8\"} 2\n\
   wait_bucket{le=\"+Inf\"} 2\n\
   wait_sum 6.0\n\
   wait_count 2\n"

let test_prometheus_golden () =
  Alcotest.(check string) "prometheus output"
    prometheus_golden
    (Format.asprintf "%a" Metrics.pp_prometheus (sample_registry ()))

let test_prometheus_label_order_irrelevant () =
  let flipped = Metrics.create () in
  Metrics.incr flipped ~by:2 ~labels:[ ("hyp", "kvm"); ("arch", "x86") ] "traps";
  Metrics.incr flipped ~by:7 ~labels:[ ("arch", "arm"); ("hyp", "kvm") ] "traps";
  Metrics.set_gauge flipped "depth" 3.0;
  Metrics.observe flipped "wait" 5.0;
  Metrics.observe flipped "wait" 1.0;
  Alcotest.(check string) "insertion order leaks nowhere"
    (Format.asprintf "%a" Metrics.pp_prometheus (sample_registry ()))
    (Format.asprintf "%a" Metrics.pp_prometheus flipped)

let test_label_value_order_canonical () =
  (* Regression for the explicit per-pair label comparator: families with
     several label values render in value order, whatever the insertion
     order was. *)
  let render m = Format.asprintf "%a" Metrics.pp_prometheus m in
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a ~labels:[ ("k", "beta") ] "x_total";
  Metrics.incr a ~labels:[ ("k", "alpha") ] "x_total";
  Metrics.incr b ~labels:[ ("k", "alpha") ] "x_total";
  Metrics.incr b ~labels:[ ("k", "beta") ] "x_total";
  Alcotest.(check string) "insertion order invisible" (render a) (render b);
  let rendered = render a in
  Alcotest.(check bool) "alpha renders before beta" true
    (let find sub =
       let n = String.length sub in
       let rec go i =
         if i + n > String.length rendered then -1
         else if String.sub rendered i n = sub then i
         else go (i + 1)
       in
       go 0
     in
     find {|"alpha"|} < find {|"beta"|} && find {|"alpha"|} >= 0)

(* --- Golden: Chrome trace JSON ------------------------------------- *)

(* Records a decoded event into a tracer, interning its strings. *)
let record trace (e : Span.event) =
  let track = Tracer.track trace e.track and name = Tracer.name trace e.name in
  match e.kind with
  | Span.Complete dur ->
      Tracer.complete trace ~track ~cat:e.cat ~name ~ts:e.ts ~dur
  | Span.Instant -> Tracer.instant trace ~track ~cat:e.cat ~name ~ts:e.ts
  | Span.Value value ->
      Tracer.value trace ~track ~cat:e.cat ~name ~ts:e.ts ~value

let chrome_sample () =
  let trace = Tracer.create ~capacity:5 () in
  List.iter (record trace)
    [
      (* Lost to the cap: the cell reports one dropped event, and its
         track and name appear nowhere. *)
      {
        Span.ts = 0;
        track = "lost";
        cat = Span.Other;
        name = "lost";
        kind = Span.Complete 1;
      };
      (* Recorded out of start order and with a tie at ts=0: the
         exporter must sort by (ts, dur desc, recording order). *)
      {
        Span.ts = 5;
        track = "cpu";
        cat = Span.Io;
        name = "tx";
        kind = Span.Complete 3;
      };
      {
        Span.ts = 0;
        track = "cpu";
        cat = Span.Vmexit;
        name = "inner";
        kind = Span.Complete 2;
      };
      {
        Span.ts = 0;
        track = "cpu";
        cat = Span.Sched;
        name = "outer";
        kind = Span.Complete 10;
      };
      {
        Span.ts = 2;
        track = "worker";
        cat = Span.Sched;
        name = "spawn";
        kind = Span.Instant;
      };
      {
        Span.ts = 4;
        track = "mb:inbox";
        cat = Span.Io;
        name = "inbox";
        kind = Span.Value 2;
      };
    ];
  [ { Export.pid = 0; name = "cell-a"; trace } ]

let chrome_golden =
  "{\"traceEvents\":[\n\
   {\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"cell-a\",\"dropped_events\":1}},\n\
   {\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"cpu\"}},\n\
   {\"ph\":\"M\",\"pid\":0,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"mb:inbox\"}},\n\
   {\"ph\":\"M\",\"pid\":0,\"tid\":3,\"name\":\"thread_name\",\"args\":{\"name\":\"worker\"}},\n\
   {\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":0,\"cat\":\"sched\",\"name\":\"outer\",\"dur\":10},\n\
   {\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":0,\"cat\":\"vmexit\",\"name\":\"inner\",\"dur\":2},\n\
   {\"ph\":\"i\",\"pid\":0,\"tid\":3,\"ts\":2,\"cat\":\"sched\",\"name\":\"spawn\",\"s\":\"t\"},\n\
   {\"ph\":\"C\",\"pid\":0,\"tid\":2,\"ts\":4,\"cat\":\"io\",\"name\":\"inbox\",\"args\":{\"value\":2}},\n\
   {\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":5,\"cat\":\"io\",\"name\":\"tx\",\"dur\":3}\n\
   ],\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"simulated cycles (1 exported us = 1 cycle)\"}}\n"

let test_chrome_golden () =
  Alcotest.(check string) "chrome trace output" chrome_golden
    (Format.asprintf "%a" Export.chrome (chrome_sample ()))

(* One row per event in the chrome order; an empty dur or value cell
   where the kind has none. *)
let csv_golden =
  "pid,process,tid,track,ts,dur,cat,name,value\n\
   0,cell-a,1,cpu,0,10,sched,outer,\n\
   0,cell-a,1,cpu,0,2,vmexit,inner,\n\
   0,cell-a,3,worker,2,,sched,spawn,\n\
   0,cell-a,2,mb:inbox,4,,io,inbox,2\n\
   0,cell-a,1,cpu,5,3,io,tx,\n"

let test_csv_export () =
  Alcotest.(check string) "csv output" csv_golden
    (Format.asprintf "%a" Export.csv (chrome_sample ()))

(* sched (10) > io (3) > vmexit (2); instants and values count as events
   but contribute no cycles. *)
let summary_golden =
  "Cycle attribution (1 processes, 5 events, 1 dropped)\n\
   ----------------------------------------------------------------\n\
   sched                  10  66.7%\n\
  \  outer                                              10\n\
   io                      3  20.0%\n\
  \  tx                                                  3\n\
   vmexit                  2  13.3%\n\
  \  inner                                               2\n\
   ----------------------------------------------------------------\n\
   total                  15\n"

let test_summary_export () =
  Alcotest.(check string) "summary output" summary_golden
    (Format.asprintf "%a" Export.summary (chrome_sample ()))

(* --- The exporters against the record ring they replaced ------------ *)

(* Names and cell labels from pieces JSON must escape (quote, backslash,
   control bytes) and CSV must quote (comma, quote, CR, LF). *)
let name_pieces =
  [| "cpu"; "kvm_arm.hvc"; ","; "\""; "\\"; "\n"; "\r"; "\t"; "\x01";
     "\xc3\xa9"; " "; "mb:" |]

let random_name rng =
  String.concat ""
    (List.init (1 + Rng.int rng ~bound:3) (fun _ ->
         name_pieces.(Rng.int rng ~bound:(Array.length name_pieces))))

(* Small start times and durations so ties and nesting are common, a
   few tracks and names per cell, values of either sign. *)
let random_event rng ~tracks ~names =
  let pick a = a.(Rng.int rng ~bound:(Array.length a)) in
  {
    Span.ts = Rng.int rng ~bound:12;
    track = pick tracks;
    cat = pick Span.categories;
    name = pick names;
    kind =
      (match Rng.int rng ~bound:3 with
      | 0 -> Span.Complete (Rng.int rng ~bound:6)
      | 1 -> Span.Instant
      | _ -> Span.Value (Rng.int rng ~bound:2001 - 1000));
  }

(* One to three cells, each recorded into both rings: half of them
   capped below their event count, so they drop. *)
let random_cells seed =
  let rng = Rng.create ~seed in
  List.init (1 + Rng.int rng ~bound:3) (fun pid ->
      let tracks = Array.init (1 + Rng.int rng ~bound:4) (fun _ -> random_name rng)
      and names = Array.init (1 + Rng.int rng ~bound:6) (fun _ -> random_name rng) in
      let events =
        List.init (Rng.int rng ~bound:40) (fun _ -> random_event rng ~tracks ~names)
      in
      let capacity =
        if Rng.bool rng then Some (1 + Rng.int rng ~bound:30) else None
      in
      let trace = Tracer.create ?capacity ()
      and reference = Reference_export.tracer ?capacity () in
      List.iter
        (fun (e : Span.event) ->
          record trace e;
          match e.kind with
          | Span.Complete dur ->
              Reference_export.complete reference ~track:e.track ~cat:e.cat
                ~name:e.name ~ts:e.ts ~dur
          | Span.Instant ->
              Reference_export.instant reference ~track:e.track ~cat:e.cat
                ~name:e.name ~ts:e.ts
          | Span.Value value ->
              Reference_export.value reference ~track:e.track ~cat:e.cat
                ~name:e.name ~ts:e.ts ~value)
        events;
      let name = random_name rng in
      ( { Export.pid; name; trace },
        Reference_export.process ~pid ~name reference ))

let exports_match_reference seed =
  let cells = random_cells seed in
  let ours = List.map fst cells and theirs = List.map snd cells in
  let render pp x = Format.asprintf "%a" pp x in
  let chrome = render Export.chrome ours in
  chrome = render Reference_export.chrome theirs
  && render Export.csv ours = render Reference_export.csv theirs
  && render Export.summary ours = render Reference_export.summary theirs
  && Result.is_ok (Json.parse chrome)

let prop_exports_match_reference =
  QCheck.Test.make ~count:500
    ~name:"integer ring exports the record ring's chrome, csv and summary bytes"
    QCheck.(make ~print:string_of_int Gen.int)
    exports_match_reference

(* --- Table ---------------------------------------------------------- *)

module Table = Armvirt_obs.Table

(* Cells built from what CSV must quote and markdown must escape. *)
let cell_pieces =
  [| ","; "\""; "\r"; "\n"; "\r\n"; "|"; ""; "\xc3\xa9"; "\xe2\x86\x92"; "a";
     "42"; " " |]

let random_cell rng =
  String.concat ""
    (List.init (Rng.int rng ~bound:4) (fun _ ->
         cell_pieces.(Rng.int rng ~bound:(Array.length cell_pieces))))

let random_table rng =
  let ncols = 1 + Rng.int rng ~bound:5 in
  let columns =
    List.init ncols (fun _ ->
        {
          Table.head =
            List.init (1 + Rng.int rng ~bound:2) (fun _ -> random_cell rng);
          width = Rng.int rng ~bound:8;
          align = (if Rng.bool rng then Table.Left else Table.Right);
        })
  in
  let rows =
    List.init (Rng.int rng ~bound:6) (fun _ ->
        List.init ncols (fun _ -> random_cell rng))
  in
  (columns, rows)

(* A small strict RFC 4180 reader: records end in LF, a quoted field may
   hold anything and doubles its quotes, and an unquoted field may hold
   no quote and no CR (readers that take either line ending would split
   the record there). *)
let read_csv s =
  let n = String.length s in
  let rows = ref [] and row = ref [] and field = Buffer.create 16 in
  let end_field () =
    row := Buffer.contents field :: !row;
    Buffer.clear field
  in
  let rec plain i =
    if i < n then
      match s.[i] with
      | ',' -> end_field (); plain (i + 1)
      | '\n' ->
          end_field ();
          rows := List.rev !row :: !rows;
          row := [];
          plain (i + 1)
      | '"' when Buffer.length field = 0 -> quoted (i + 1)
      | '"' | '\r' -> failwith "read_csv: unquoted quote or CR"
      | c -> Buffer.add_char field c; plain (i + 1)
  and quoted i =
    match s.[i] with
    | '"' when i + 1 < n && s.[i + 1] = '"' ->
        Buffer.add_char field '"';
        quoted (i + 2)
    | '"' -> plain (i + 1)
    | c -> Buffer.add_char field c; quoted (i + 1)
  in
  plain 0;
  List.rev !rows

(* Pipes that separate markdown cells: those no backslash escapes. *)
let md_pipes line =
  let count = ref 0 in
  String.iteri
    (fun i c -> if c = '|' && (i = 0 || line.[i - 1] <> '\\') then incr count)
    line;
  !count

let table_renders seed =
  let columns, rows = random_table (Rng.create ~seed) in
  let t = Table.v ~rule:(seed land 3) columns rows in
  let render pp = Format.asprintf "%a" pp t in
  let header =
    List.map
      (fun (c : Table.column) ->
        String.concat " " (List.filter (( <> ) "") c.Table.head))
      columns
  in
  let md = String.split_on_char '\n' (render Table.markdown) in
  (* Padding as Printf pads: to the width, never cutting a cell. *)
  let printf_row cells =
    String.concat " "
      (List.map2
         (fun (c : Table.column) cell ->
           match c.Table.align with
           | Table.Left -> Printf.sprintf "%-*s" c.Table.width cell
           | Table.Right -> Printf.sprintf "%*s" c.Table.width cell)
         columns cells)
  in
  let text = render Table.text in
  let short = List.tl (List.map (fun _ -> "") columns) in
  read_csv (render Table.csv) = header :: rows
  && List.length md = List.length rows + 3
  && List.for_all
       (fun l -> l = "" || md_pipes l = List.length columns + 1)
       md
  && List.for_all (fun cells -> index_of text (printf_row cells) >= 0) rows
  &&
  match Table.v columns (rows @ [ short ]) with
  | _ -> false
  | exception Invalid_argument _ -> true

let prop_table_renders =
  QCheck.Test.make ~count:500
    ~name:"csv round-trips, markdown keeps its columns, text cuts no cell"
    QCheck.(make ~print:string_of_int Gen.int)
    table_renders

let test_table_undefined_cells () =
  let cell = Table.float "%.2f" in
  Alcotest.(check string) "finite" "1.50" (cell 1.5);
  Alcotest.(check (list string)) "NaN and infinities print -"
    [ "-"; "-"; "-" ]
    (List.map cell [ Float.nan; Float.infinity; Float.neg_infinity ]);
  let t =
    Table.v [ Table.left 4 "k"; Table.right 6 "v" ]
      [ [ "a"; cell 2. ]; [ "b"; cell (0. /. 0.) ] ]
  in
  Alcotest.(check string) "csv" "k,v\na,2.00\nb,-\n"
    (Format.asprintf "%a" Table.csv t)

(* --- Json: the reader behind stat --diff ----------------------------- *)

let json_value =
  Alcotest.testable
    (fun ppf v ->
      let rec pp ppf = function
        | Json.Null -> Format.pp_print_string ppf "null"
        | Json.Bool b -> Format.pp_print_bool ppf b
        | Json.Num f -> Format.fprintf ppf "%h" f
        | Json.Str s -> Format.fprintf ppf "%S" s
        | Json.Arr vs ->
            Format.fprintf ppf "[%a]"
              (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",") pp)
              vs
        | Json.Obj fs ->
            Format.fprintf ppf "{%a}"
              (Format.pp_print_list
                 ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
                 (fun ppf (k, v) -> Format.fprintf ppf "%S:%a" k pp v))
              fs
      in
      pp ppf v)
    ( = )

let parsed s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_json_values () =
  let check s v = Alcotest.check json_value s v (parsed s) in
  check "null" Json.Null;
  check " true " (Json.Bool true);
  check "false" (Json.Bool false);
  check "-12.5e1" (Json.Num (-125.));
  check {|"a\"b\\c\/\n\t\u0041\u00e9"|} (Json.Str "a\"b\\c/\n\tA\xc3\xa9");
  check "[]" (Json.Arr []);
  check "{}" (Json.Obj []);
  check {| { "k" : [1, {"x": null}], "k2": "v" } |}
    (Json.Obj
       [
         ("k", Json.Arr [ Json.Num 1.; Json.Obj [ ("x", Json.Null) ] ]);
         ("k2", Json.Str "v");
       ])

let test_json_member () =
  let doc = parsed {|{"a": 1, "b": {"c": true}}|} in
  Alcotest.(check (option json_value)) "present" (Some (Json.Num 1.))
    (Json.member "a" doc);
  Alcotest.(check (option json_value)) "absent" None (Json.member "z" doc);
  Alcotest.(check (option json_value)) "not an object" None
    (Json.member "a" (Json.Arr [ doc ]));
  Alcotest.(check (option json_value)) "nested" (Some (Json.Bool true))
    (Option.bind (Json.member "b" doc) (Json.member "c"))

let test_json_errors () =
  (* Every malformed document is an [Error] naming its byte offset,
     never an exception. *)
  List.iter
    (fun (input, offset) ->
      match Json.parse input with
      | Ok _ -> Alcotest.failf "%S accepted" input
      | Error msg ->
          let suffix = Printf.sprintf "at offset %d" offset in
          Alcotest.(check bool)
            (Printf.sprintf "%S: %s" input msg)
            true
            (String.ends_with ~suffix msg)
      | exception e ->
          Alcotest.failf "%S raised %s" input (Printexc.to_string e))
    [
      ("", 0);
      ("nul", 0);
      ("[1,]", 3);
      ({|{"a" 1}|}, 5);
      ({|{"a": 1|}, 7);
      ("1 2", 2);
      ({|"abc|}, 4);
      ({|"\q"|}, 2);
      ({|"\u00"|}, 3);
      ({|"\uZZZZ"|}, 3);
      ("1e", 2);
    ]

let prop_json_escape_round_trip =
  QCheck.Test.make ~count:500 ~name:"escape round-trips any byte string"
    QCheck.(string_gen Gen.char)
    (fun s ->
      let body = Json.escape s in
      String.for_all (fun c -> Char.code c >= 0x20) body
      && Json.parse ("\"" ^ body ^ "\"") = Ok (Json.Str s))

(* --- Observe + Runner: export determinism across jobs --------------- *)

let run_traced_cells ~jobs =
  Observe.enable ~trace:true ~context:"t" ();
  Fun.protect ~finally:Observe.disable (fun () ->
      let results =
        Runner.map ~jobs
          (fun i ->
            let m = Platform.machine Platform.Arm_m400 in
            let sim = Machine.sim m in
            Sim.spawn sim ~name:"w" (fun () ->
                Machine.spend
                  (Machine.op m Vmexit "vmexit.entry")
                  (100 * (i + 1));
                Machine.spend (Machine.op m Io "netperf.tx_path") 50);
            Sim.run sim;
            i)
          [ 0; 1; 2; 3; 4; 5 ]
      in
      let export pp = Format.asprintf "%a" pp (Observe.processes ()) in
      (results, List.map export [ Export.chrome; Export.csv; Export.summary ]))

let test_export_deterministic_across_jobs () =
  let r1, t1 = run_traced_cells ~jobs:1 in
  let r4, t4 = run_traced_cells ~jobs:4 in
  Alcotest.(check (list int)) "results in input order" [ 0; 1; 2; 3; 4; 5 ] r1;
  Alcotest.(check (list int)) "parallel results identical" r1 r4;
  List.iter2
    (fun format (a, b) ->
      Alcotest.(check string) (format ^ " export byte-identical") a b)
    [ "chrome"; "csv"; "summary" ]
    (List.combine t1 t4);
  Alcotest.(check bool) "trace is non-trivial" true
    (String.length (List.hd t1) > 500)

let test_cell_labels_in_input_order () =
  Observe.enable ~trace:false ~context:"lbl" ();
  Fun.protect ~finally:Observe.disable (fun () ->
      ignore (Runner.map ~jobs:4 (fun i -> i) [ 10; 20; 30 ]);
      let labels = List.map (fun c -> c.Observe.label) (Observe.cells ()) in
      Alcotest.(check (list string)) "labels"
        [ "lbl#0.0"; "lbl#0.1"; "lbl#0.2" ]
        labels)

let test_memo_metrics () =
  Observe.enable ~trace:false ~context:"memo" ();
  Fun.protect ~finally:Observe.disable (fun () ->
      let tbl = Runner.Memo.create () in
      let key = Runner.Key.v ~platform:"arm" () in
      ignore (Runner.Memo.find_or_compute tbl key (fun () -> 1));
      ignore (Runner.Memo.find_or_compute tbl key (fun () -> 2));
      let m = Observe.metrics () in
      Alcotest.(check int) "one miss" 1
        (Metrics.counter_value m "runner_memo_misses_total");
      Alcotest.(check int) "one hit" 1
        (Metrics.counter_value m "runner_memo_hits_total"))

(* The create hook is domain-local and lives only while a capture runs:
   a machine built inside the capture is traced; one built on the same
   domain outside it, or on a second domain while it is open, is not;
   and a later capture sees only its own machines. *)
let test_create_hook_domain_local () =
  let build () = arm_machine (Sim.create ()) in
  let step m label =
    let sim = Machine.sim m in
    Sim.spawn sim ~name:"w" (fun () ->
        Machine.spend (Machine.op m Other label) 10);
    Sim.run sim
  in
  let spans (cell : Observe.cell option) =
    match cell with
    | None -> Alcotest.fail "capture returned no cell"
    | Some c ->
        List.filter_map
          (fun (e : Span.event) ->
            match e.kind with
            | Span.Complete _ -> Some (e.track, e.name)
            | _ -> None)
          (Tracer.events c.trace)
  in
  Observe.enable ~trace:true ~context:"hook" ();
  Fun.protect ~finally:Observe.disable (fun () ->
      let before = build () in
      let inside = ref None in
      let (), first =
        Observe.capture ~label:"hook#0.0" (fun () ->
            let m = build () in
            inside := Some m;
            let other = Domain.join (Domain.spawn build) in
            step m "inside";
            step before "before";
            step other "other")
      in
      Alcotest.(check (list (pair string string)))
        "only the machine built inside the capture"
        [ ("cpu", "inside") ]
        (spans first);
      let after = build () in
      let (), later =
        Observe.capture ~label:"hook#0.1" (fun () ->
            let m = build () in
            step after "after";
            Option.iter (fun m -> step m "inside-again") !inside;
            step m "later")
      in
      Alcotest.(check (list (pair string string)))
        "a later capture sees only its own machine, as machine 0"
        [ ("cpu", "later") ]
        (spans later))

(* --- No-observer overhead: traced-off runs match the seed ----------- *)

let test_tracing_does_not_change_results () =
  let untraced = W.Netperf.run_tcp_rr (Platform.hypervisor Arm_m400 Kvm) in
  Observe.enable ~trace:true ~context:"rr" ();
  let traced, cell =
    Fun.protect ~finally:Observe.disable (fun () ->
        Observe.capture ~label:"rr#0.0" (fun () ->
            W.Netperf.run_tcp_rr (Platform.hypervisor Arm_m400 Kvm)))
  in
  Alcotest.(check (float 0.0)) "trans/s identical"
    untraced.W.Netperf.trans_per_sec traced.W.Netperf.trans_per_sec;
  Alcotest.(check (float 0.0)) "us/trans identical"
    untraced.W.Netperf.time_per_trans_us traced.W.Netperf.time_per_trans_us;
  match cell with
  | Some c ->
      Alcotest.(check bool) "cell recorded events" true
        (Tracer.length c.Observe.trace > 0)
  | None -> Alcotest.fail "capture returned no cell"

let test_untraced_capture_is_transparent () =
  (* No session: capture must run the thunk untouched and return no cell. *)
  let v, cell = Observe.capture ~label:"x" (fun () -> 42) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check bool) "no cell" true (cell = None)

(* A live session costs an engine-only simulation nothing: the session
   reaches a run only through machines its cell builds, and this one
   builds none. The delay-churn shape (512 processes of 30 delays) runs
   once outside any session and once inside a capture; both must process
   the same events with exactly the same minor-heap allocation, and the
   cell must record nothing. *)
let test_session_costs_engine_only_nothing () =
  let churn () =
    let sim = Sim.create () in
    for p = 0 to 511 do
      Sim.spawn sim (fun () ->
          for i = 1 to 30 do
            Sim.delay (Armvirt_engine.Cycles.of_int ((p + i) land 63))
          done)
    done;
    let before = Gc.minor_words () in
    Sim.run sim;
    (Sim.events_processed sim, Gc.minor_words () -. before)
  in
  let events, words = churn () in
  Observe.enable ~trace:true ~context:"engine-only" ();
  Fun.protect ~finally:Observe.disable (fun () ->
      let (events', words'), cell =
        Observe.capture ~label:"engine-only#0.0" churn
      in
      Alcotest.(check int) "events" events events';
      Alcotest.(check (float 0.)) "minor words" words words';
      match cell with
      | None -> Alcotest.fail "capture returned no cell"
      | Some c ->
          Alcotest.(check int) "no events recorded" 0 (Tracer.length c.trace);
          Alcotest.(check int) "nothing dropped" 0 (Tracer.dropped c.trace))

(* --- Mailbox depth through the tracer glue -------------------------- *)

let test_mailbox_depth_value_events () =
  (* Same wiring Observe uses: on_queue_depth -> Tracer.value. A direct
     send-to-parked-receiver hand-off bypasses the queue, so it must
     leave no Value event behind (it used to re-report the unchanged
     depth); only the enqueue and the later dequeue appear. *)
  let sim = Sim.create () in
  let tracer = Tracer.create () in
  Sim.set_observer sim
    (Some
       {
         Sim.on_spawn = (fun ~id:_ ~name:_ ~at:_ -> ());
         on_park = (fun ~id:_ ~name:_ ~at:_ -> ());
         on_wake = (fun ~id:_ ~name:_ ~at:_ -> ());
         on_contention = (fun ~resource:_ ~proc:_ ~at:_ ~waited:_ -> ());
         on_queue_depth =
           (fun ~mailbox ~at ~depth ->
             Tracer.value tracer
               ~track:(Tracer.track tracer ("mb:" ^ mailbox))
               ~cat:Span.Io ~name:(Tracer.name tracer mailbox) ~ts:at
               ~value:depth);
       });
  let mb = Sim.Mailbox.create ~name:"inbox" sim in
  Sim.spawn sim ~name:"consumer" (fun () ->
      ignore (Sim.Mailbox.recv mb);
      (* parked: direct handoff resumes it at t=1 *)
      Sim.delay (Armvirt_engine.Cycles.of_int 10);
      ignore (Sim.Mailbox.recv mb) (* dequeues at t=11: depth 0 *));
  Sim.spawn sim ~name:"producer" (fun () ->
      Sim.delay Armvirt_engine.Cycles.one;
      Sim.Mailbox.send mb 1;
      (* handoff: no event *)
      Sim.Mailbox.send mb 2 (* enqueued: depth 1 *));
  Sim.run sim;
  let values =
    List.filter_map
      (fun e ->
        match e.Span.kind with Span.Value v -> Some (e.Span.ts, v) | _ -> None)
      (Tracer.events tracer)
  in
  Alcotest.(check (list (pair int int)))
    "only queue transitions traced"
    [ (1, 1); (11, 0) ]
    values

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "unbounded chronological" `Quick
            test_ring_unbounded_chronological;
          Alcotest.test_case "capped drops oldest" `Quick
            test_ring_capped_drops_oldest;
          Alcotest.test_case "rejects zero capacity" `Quick
            test_ring_rejects_zero_capacity;
          Alcotest.test_case "rejects foreign ids" `Quick
            test_ring_rejects_foreign_ids;
        ] );
      ( "span",
        [
          Alcotest.test_case "of_label" `Quick test_span_of_label;
          Alcotest.test_case "category names" `Quick test_span_category_names;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records spends" `Quick test_trace_records_spends;
          Alcotest.test_case "capture reads counters" `Quick
            test_capture_reads_counters;
          Alcotest.test_case "events chronological" `Quick
            test_trace_events_chronological;
          Alcotest.test_case "traced spend allocates nothing" `Quick
            test_traced_spend_allocates_nothing;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram boundaries" `Quick
            test_histogram_boundaries;
          Alcotest.test_case "huge values saturate" `Quick
            test_histogram_huge_values_saturate;
          Alcotest.test_case "counters and gauges" `Quick
            test_counters_and_gauges;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "prometheus golden" `Quick test_prometheus_golden;
          Alcotest.test_case "label order irrelevant" `Quick
            test_prometheus_label_order_irrelevant;
          Alcotest.test_case "label value order canonical" `Quick
            test_label_value_order_canonical;
        ] );
      ( "table",
        [
          QCheck_alcotest.to_alcotest prop_table_renders;
          Alcotest.test_case "undefined cells" `Quick test_table_undefined_cells;
        ] );
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json_values;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "errors name the offset" `Quick test_json_errors;
          QCheck_alcotest.to_alcotest prop_json_escape_round_trip;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
          Alcotest.test_case "csv" `Quick test_csv_export;
          Alcotest.test_case "summary" `Quick test_summary_export;
          QCheck_alcotest.to_alcotest prop_exports_match_reference;
        ] );
      ( "observe",
        [
          Alcotest.test_case "export deterministic across jobs" `Quick
            test_export_deterministic_across_jobs;
          Alcotest.test_case "cell labels in input order" `Quick
            test_cell_labels_in_input_order;
          Alcotest.test_case "memo metrics" `Quick test_memo_metrics;
          Alcotest.test_case "tracing does not change results" `Quick
            test_tracing_does_not_change_results;
          Alcotest.test_case "mailbox depth value events" `Quick
            test_mailbox_depth_value_events;
          Alcotest.test_case "untraced capture transparent" `Quick
            test_untraced_capture_is_transparent;
          Alcotest.test_case "session costs engine-only runs nothing" `Quick
            test_session_costs_engine_only_nothing;
          Alcotest.test_case "create hook is domain-local" `Quick
            test_create_hook_domain_local;
        ] );
    ]
