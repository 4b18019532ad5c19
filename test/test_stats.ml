(* Tests for Armvirt_stats: summaries, histograms, counters and the
   barriered cycle counter. *)

module Cycles = Armvirt_engine.Cycles
module Sim = Armvirt_engine.Sim
module Summary = Armvirt_stats.Summary
module Histogram = Armvirt_stats.Histogram
module Counter = Armvirt_stats.Counter
module Cycle_counter = Armvirt_stats.Cycle_counter

(* --- Summary ------------------------------------------------------- *)

let test_summary_basics () =
  let s = Summary.of_list [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check int) "count" 3 (Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Summary.mean s);
  Alcotest.(check (float 1e-9)) "median" 2.0 (Summary.median s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Summary.max s)

let test_summary_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_list: empty sample")
    (fun () -> ignore (Summary.of_list []))

let test_summary_singleton () =
  let s = Summary.of_list [ 5.0 ] in
  Alcotest.(check (float 1e-9)) "stddev zero" 0.0 (Summary.stddev s);
  Alcotest.(check (float 1e-9)) "p99 = value" 5.0 (Summary.percentile s 99.0)

let test_summary_cv () =
  (* Regression for the explicit Float.equal zero-mean guard. *)
  let z = Summary.of_list [ -1.0; 1.0 ] in
  Alcotest.(check (float 1e-9)) "zero-mean guard" 0.0
    (Summary.coefficient_of_variation z);
  let s = Summary.of_list [ 2.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "cv = stddev/mean"
    (Summary.stddev s /. 3.0)
    (Summary.coefficient_of_variation s)

let test_summary_percentiles () =
  let s = Summary.of_list (List.init 101 float_of_int) in
  Alcotest.(check (float 1e-6)) "p0" 0.0 (Summary.percentile s 0.0);
  Alcotest.(check (float 1e-6)) "p50" 50.0 (Summary.percentile s 50.0);
  Alcotest.(check (float 1e-6)) "p100" 100.0 (Summary.percentile s 100.0);
  Alcotest.(check (float 1e-6)) "p25" 25.0 (Summary.percentile s 25.0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Summary.percentile: out of range") (fun () ->
      ignore (Summary.percentile s 101.0))

let test_summary_stddev () =
  (* Sample [2;4;4;4;5;5;7;9]: sample stddev = sqrt(32/7). *)
  let s = Summary.of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check (float 1e-6)) "sample stddev" (sqrt (32.0 /. 7.0))
    (Summary.stddev s)

let test_summary_ci95_student_t () =
  (* n = 4 < 30: the half-width must use t(0.975, df=3) = 3.182, not
     z = 1.96. Sample [1;2;3;4]: mean 2.5, sample sd = sqrt(5/3). *)
  let s = Summary.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  let lo, hi = Summary.ci95 s in
  let sd = sqrt (5.0 /. 3.0) in
  let half = 3.182 *. sd /. 2.0 in
  Alcotest.(check (float 1e-6)) "lower" (2.5 -. half) lo;
  Alcotest.(check (float 1e-6)) "upper" (2.5 +. half) hi;
  (* n = 2, the widest interval: t(0.975, df=1) = 12.706. *)
  let s2 = Summary.of_list [ 10.0; 20.0 ] in
  let lo2, hi2 = Summary.ci95 s2 in
  let half2 = 12.706 *. Summary.stddev s2 /. sqrt 2.0 in
  Alcotest.(check (float 1e-6)) "n=2 lower" (15.0 -. half2) lo2;
  Alcotest.(check (float 1e-6)) "n=2 upper" (15.0 +. half2) hi2

let test_summary_ci95_normal_for_large_n () =
  (* n >= 30 keeps the normal approximation: half = 1.96 * sd / sqrt n. *)
  let values = List.init 30 (fun i -> float_of_int i) in
  let s = Summary.of_list values in
  let lo, hi = Summary.ci95 s in
  let half = 1.96 *. Summary.stddev s /. sqrt 30.0 in
  Alcotest.(check (float 1e-6)) "half-width" half ((hi -. lo) /. 2.0);
  Alcotest.(check (float 1e-6)) "centered on mean" (Summary.mean s)
    ((hi +. lo) /. 2.0)

let test_summary_of_cycles () =
  let s = Summary.of_cycles [ Cycles.of_int 10; Cycles.of_int 20 ] in
  Alcotest.(check int) "median cycles" 15
    (Cycles.to_int (Summary.median_cycles s))

let prop_summary_median_bounded =
  QCheck.Test.make ~name:"median between min and max"
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_inclusive 1000.0))
    (fun values ->
      let s = Summary.of_list values in
      Summary.min s <= Summary.median s && Summary.median s <= Summary.max s)

let prop_summary_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p"
    QCheck.(
      triple
        (list_of_size (Gen.int_range 2 50) (float_bound_inclusive 1000.0))
        (float_bound_inclusive 100.0) (float_bound_inclusive 100.0))
    (fun (values, p1, p2) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      let s = Summary.of_list values in
      Summary.percentile s lo <= Summary.percentile s hi +. 1e-9)

(* --- Histogram ----------------------------------------------------- *)

let test_histogram_bucketing () =
  let h = Histogram.create ~bucket_width:10.0 in
  List.iter (Histogram.add h) [ 0.0; 5.0; 9.9; 10.0; 25.0 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check int) "buckets" 3 (Histogram.bucket_count h);
  (match Histogram.buckets h with
  | [ (0.0, 10.0, 3); (10.0, 20.0, 1); (20.0, 30.0, 1) ] -> ()
  | _ -> Alcotest.fail "unexpected bucket layout")

let test_histogram_mode () =
  let h = Histogram.create ~bucket_width:1.0 in
  List.iter (Histogram.add h) [ 1.5; 1.6; 3.2 ];
  match Histogram.mode_bucket h with
  | Some (1.0, 2.0, 2) -> ()
  | _ -> Alcotest.fail "mode should be [1,2) with 2"

let test_histogram_errors () =
  Alcotest.check_raises "bad width"
    (Invalid_argument "Histogram.create: non-positive bucket width") (fun () ->
      ignore (Histogram.create ~bucket_width:0.0));
  let h = Histogram.create ~bucket_width:1.0 in
  Alcotest.check_raises "negative observation"
    (Invalid_argument "Histogram.add: negative observation") (fun () ->
      Histogram.add h (-1.0))

let prop_histogram_total =
  QCheck.Test.make ~name:"histogram count equals additions"
    QCheck.(list (float_bound_inclusive 100.0))
    (fun values ->
      let h = Histogram.create ~bucket_width:7.0 in
      List.iter (Histogram.add h) values;
      Histogram.count h = List.length values
      && List.fold_left (fun acc (_, _, n) -> acc + n) 0 (Histogram.buckets h)
         = List.length values)

(* --- Counter ------------------------------------------------------- *)

let test_counter_accumulation () =
  let set = Counter.create_set () in
  Counter.incr set "traps";
  Counter.incr set "traps";
  Counter.add set "cycles" 100;
  Counter.add_cycles set "cycles" (Cycles.of_int 23);
  Alcotest.(check int) "incr" 2 (Counter.get set "traps");
  Alcotest.(check int) "add" 123 (Counter.get set "cycles");
  Alcotest.(check int) "untouched" 0 (Counter.get set "nothing");
  Alcotest.(check (list string)) "names sorted" [ "cycles"; "traps" ]
    (Counter.names set);
  Counter.reset set;
  Alcotest.(check int) "reset" 0 (Counter.get set "traps")

(* get is the sum of adds per name, names the sorted distinct names, and
   reset zeroes every counter. *)
let prop_counter_sums =
  let labels = [| "traps"; "ipis"; "vm_switch"; "copies" |] in
  QCheck.Test.make ~name:"counter get = sum of adds; reset zeroes"
    QCheck.(list (pair (int_bound 3) (int_range (-1000) 1000)))
    (fun updates ->
      let set = Counter.create_set () in
      List.iter (fun (i, n) -> Counter.add set labels.(i) n) updates;
      let sum label =
        List.fold_left
          (fun acc (i, n) -> if labels.(i) = label then acc + n else acc)
          0 updates
      in
      let touched =
        List.sort_uniq String.compare
          (List.map (fun (i, _) -> labels.(i)) updates)
      in
      let sums_hold =
        Array.for_all (fun label -> Counter.get set label = sum label) labels
      in
      let names_hold = Counter.names set = touched in
      Counter.reset set;
      sums_hold && names_hold
      && Array.for_all (fun label -> Counter.get set label = 0) labels)

(* --- Cycle_counter -------------------------------------------------- *)

let test_cycle_counter_measure () =
  let sim = Sim.create () in
  let measured = ref Cycles.zero in
  Sim.spawn sim ~name:"measurer" (fun () ->
      let counter = Cycle_counter.create ~barrier_cost:(Cycles.of_int 24) in
      measured :=
        Cycle_counter.measure counter (fun () -> Sim.delay (Cycles.of_int 500)));
  Sim.run sim;
  (* The trailing barrier is subtracted; the measured work is exact. *)
  Alcotest.(check int) "measures the operation alone" 500
    (Cycles.to_int !measured)

let test_cycle_counter_read_pays_barrier () =
  let sim = Sim.create () in
  let t = ref Cycles.zero in
  Sim.spawn sim ~name:"reader" (fun () ->
      let counter = Cycle_counter.create ~barrier_cost:(Cycles.of_int 24) in
      t := Cycle_counter.read counter);
  Sim.run sim;
  Alcotest.(check int) "barrier consumed simulated time" 24 (Cycles.to_int !t)

(* --- Trace ----------------------------------------------------------- *)

module Trace = Armvirt_stats.Trace
module Machine = Armvirt_arch.Machine
module Cost_model = Armvirt_arch.Cost_model

let test_trace_records_spends () =
  let sim = Sim.create () in
  let machine =
    Machine.create sim ~cost:(Cost_model.Arm Cost_model.arm_default)
      ~num_cpus:2
  in
  let trace = Trace.create () in
  Machine.observe machine
    (Some (fun ~label ~cycles ~now -> Trace.record trace ~label ~cycles ~now));
  Sim.spawn sim ~name:"worker" (fun () ->
      Machine.spend machine "step.a" 100;
      Machine.spend machine "step.b" 50;
      Machine.spend machine "step.a" 25);
  Sim.run sim;
  Alcotest.(check int) "three events" 3 (Trace.length trace);
  Alcotest.(check int) "total" 175 (Trace.total_cycles trace);
  (match Trace.events trace with
  | [ a; b; c ] ->
      Alcotest.(check string) "order" "step.a" a.Trace.label;
      Alcotest.(check int) "completion time" 100
        (Armvirt_engine.Cycles.to_int a.Trace.at);
      Alcotest.(check string) "second" "step.b" b.Trace.label;
      Alcotest.(check int) "third at 175"
        175 (Armvirt_engine.Cycles.to_int c.Trace.at)
  | _ -> Alcotest.fail "event list shape");
  Alcotest.(check (list (pair string int))) "by_label descending"
    [ ("step.a", 125); ("step.b", 50) ]
    (Trace.by_label trace);
  (* Detaching stops recording. *)
  Machine.observe machine None;
  Sim.spawn sim ~name:"worker2" (fun () -> Machine.spend machine "step.c" 10);
  Sim.run sim;
  Alcotest.(check int) "no longer recording" 3 (Trace.length trace);
  Trace.clear trace;
  Alcotest.(check int) "cleared" 0 (Trace.length trace)

(* Regression for the ring-buffer rewrite: [events] must stay
   chronological (the old representation was a newest-first list that
   [events] reversed) and [record] order must be preserved exactly, even
   for many events with identical timestamps. *)
let test_trace_events_chronological () =
  let trace = Trace.create () in
  let now = Armvirt_engine.Cycles.of_int 7 in
  for i = 0 to 999 do
    Trace.record trace ~label:(Printf.sprintf "op%d" i) ~cycles:1 ~now
  done;
  Alcotest.(check int) "length" 1000 (Trace.length trace);
  Alcotest.(check (list string)) "recording order preserved"
    (List.init 1000 (Printf.sprintf "op%d"))
    (List.map (fun e -> e.Trace.label) (Trace.events trace));
  Alcotest.(check int) "total is incremental" 1000 (Trace.total_cycles trace)

let test_trace_by_label_tie_break () =
  let trace = Trace.create () in
  let now = Armvirt_engine.Cycles.of_int 0 in
  (* Insert in an order that a Hashtbl fold would not preserve: equal
     totals must come out sorted by label. *)
  List.iter
    (fun l -> Trace.record trace ~label:l ~cycles:10 ~now)
    [ "zeta"; "alpha"; "mid" ];
  Alcotest.(check (list (pair string int))) "ties sorted by label"
    [ ("alpha", 10); ("mid", 10); ("zeta", 10) ]
    (Trace.by_label trace)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "basics" `Quick test_summary_basics;
          Alcotest.test_case "empty rejected" `Quick test_summary_empty_rejected;
          Alcotest.test_case "singleton" `Quick test_summary_singleton;
          Alcotest.test_case "percentiles" `Quick test_summary_percentiles;
          Alcotest.test_case "coefficient of variation" `Quick
            test_summary_cv;
          Alcotest.test_case "stddev" `Quick test_summary_stddev;
          Alcotest.test_case "ci95 Student-t for small n" `Quick
            test_summary_ci95_student_t;
          Alcotest.test_case "ci95 normal for large n" `Quick
            test_summary_ci95_normal_for_large_n;
          Alcotest.test_case "of_cycles" `Quick test_summary_of_cycles;
        ]
        @ qcheck [ prop_summary_median_bounded; prop_summary_percentile_monotone ]
      );
      ( "histogram",
        [
          Alcotest.test_case "bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "mode" `Quick test_histogram_mode;
          Alcotest.test_case "errors" `Quick test_histogram_errors;
        ]
        @ qcheck [ prop_histogram_total ] );
      ( "counter",
        [ Alcotest.test_case "accumulation" `Quick test_counter_accumulation ]
        @ qcheck [ prop_counter_sums ] );
      ( "cycle_counter",
        [
          Alcotest.test_case "measure subtracts overhead" `Quick
            test_cycle_counter_measure;
          Alcotest.test_case "read pays barrier" `Quick
            test_cycle_counter_read_pays_barrier;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records spends" `Quick test_trace_records_spends;
          Alcotest.test_case "events chronological" `Quick
            test_trace_events_chronological;
          Alcotest.test_case "by_label tie-break" `Quick
            test_trace_by_label_tie_break;
        ]
      );
    ]
