(* Tests for Armvirt_stats: summaries, counters and the
   barriered cycle counter. *)

module Cycles = Armvirt_engine.Cycles
module Sim = Armvirt_engine.Sim
module Summary = Armvirt_stats.Summary
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

(* [Summary] sorts with its own unboxed heapsort; [Array.sort
   Float.compare] is the oracle. Apart from -0.0 against 0.0 and nan
   payloads, floats that compare equal are the same bits, so any correct
   sort gives the oracle's bytes; a small value set makes ties common. *)
let bits values = List.map Int64.bits_of_float values

let oracle values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  Array.to_list a

let prop_summary_sorts_as_float_compare =
  let pool =
    [|
      0.0; 1.0; -1.0; 0.5; -0.5; 2.0; 1e-300; -1e300; 4.9e-324; max_float;
      -.max_float; 1600.25; 3.0;
    |]
  in
  QCheck.Test.make ~name:"sorted as Array.sort Float.compare, bit for bit"
    ~count:500
    QCheck.(
      list_of_size (Gen.int_range 1 300)
        (make ~print:string_of_float (Gen.oneofa pool)))
    (fun values ->
      bits (Summary.sorted (Summary.of_list values)) = bits (oracle values))

let test_summary_orders_specials () =
  let values = [ 1.0; nan; infinity; neg_infinity; -2.0; nan; 0.5 ] in
  let got = Summary.sorted (Summary.of_list values) in
  Alcotest.(check (list int64)) "Float.compare's order" (bits (oracle values))
    (bits got);
  Alcotest.(check bool) "nan first, then -inf .. inf" true
    (match got with
    | [ a; b; c; -2.0; 0.5; 1.0; d ] ->
        Float.is_nan a && Float.is_nan b && c = neg_infinity && d = infinity
    | _ -> false)

(* --- Counter ------------------------------------------------------- *)

let test_counter_accumulation () =
  let set = Counter.create_set () in
  Counter.incr set "traps";
  Counter.incr set "traps";
  Counter.add set "cycles" 100;
  Counter.add set "cycles" 23;
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

(* Interned counters against the name-keyed reference counter
   (test/reference_counter.ml). Random programs over two sets and up to 40 labels,
   "cycles" (interned first in every set) among them; after every step
   the two agree on get, names and pp. Adds go through a remembered id
   when the label was interned before, also across resets, so a stale id
   that no longer addressed its counter would show. *)
type counter_step =
  | Intern of int * int
  | Add_id of int * int * int
  | Add of int * int * int
  | Incr of int * int
  | Reset of int

let counter_label i = if i = 0 then "cycles" else Printf.sprintf "op%d.n" i

let counter_step_gen =
  QCheck.Gen.(
    let set = int_bound 1 and label = int_bound 39 in
    let amount = oneof [ return 0; int_range (-1000) 1000 ] in
    frequency
      [
        (3, map2 (fun s l -> Intern (s, l)) set label);
        (4, map3 (fun s l n -> Add_id (s, l, n)) set label amount);
        (3, map3 (fun s l n -> Add (s, l, n)) set label amount);
        (2, map2 (fun s l -> Incr (s, l)) set label);
        (1, map (fun s -> Reset s) set);
      ])

let pp_counter_step = function
  | Intern (s, l) -> Printf.sprintf "intern %d %s" s (counter_label l)
  | Add_id (s, l, n) -> Printf.sprintf "add_id %d %s %d" s (counter_label l) n
  | Add (s, l, n) -> Printf.sprintf "add %d %s %d" s (counter_label l) n
  | Incr (s, l) -> Printf.sprintf "incr %d %s" s (counter_label l)
  | Reset s -> Printf.sprintf "reset %d" s

let prop_counter_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"interned counters match the name-keyed reference"
    QCheck.(
      make
        ~print:(fun l -> String.concat "; " (List.map pp_counter_step l))
        Gen.(list_size (int_bound 120) counter_step_gen))
    (fun program ->
      let sets = [| Counter.create_set (); Counter.create_set () |] in
      let refs =
        [| Reference_counter.create_set (); Reference_counter.create_set () |]
      in
      let ids = Hashtbl.create 16 in
      let id s l =
        match Hashtbl.find_opt ids (s, l) with
        | Some id -> id
        | None ->
            let id = Counter.intern sets.(s) (counter_label l) in
            Hashtbl.add ids (s, l) id;
            id
      in
      let agree s =
        Counter.names sets.(s) = Reference_counter.names refs.(s)
        && List.for_all
             (fun l ->
               Counter.get sets.(s) (counter_label l)
               = Reference_counter.get refs.(s) (counter_label l))
             (List.init 40 Fun.id)
      in
      List.for_all
        (fun step ->
          (match step with
          | Intern (s, l) ->
              (* Idempotent: a second intern returns the remembered id. *)
              let fresh = Counter.intern sets.(s) (counter_label l) in
              if fresh <> id s l then QCheck.Test.fail_report "intern moved"
          | Add_id (s, l, n) ->
              Counter.add_id sets.(s) (id s l) n;
              Reference_counter.add refs.(s) (counter_label l) n
          | Add (s, l, n) ->
              Counter.add sets.(s) (counter_label l) n;
              Reference_counter.add refs.(s) (counter_label l) n
          | Incr (s, l) ->
              Counter.incr sets.(s) (counter_label l);
              Reference_counter.incr refs.(s) (counter_label l)
          | Reset s ->
              Counter.reset sets.(s);
              Reference_counter.reset refs.(s));
          agree 0 && agree 1)
        program)

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
          Alcotest.test_case "of_cycles" `Quick test_summary_of_cycles;
          Alcotest.test_case "orders nan and infinities" `Quick
            test_summary_orders_specials;
        ]
        @ qcheck
            [
              prop_summary_median_bounded;
              prop_summary_percentile_monotone;
              prop_summary_sorts_as_float_compare;
            ]
      );
      ( "counter",
        [ Alcotest.test_case "accumulation" `Quick test_counter_accumulation ]
        @ qcheck [ prop_counter_sums; prop_counter_matches_reference ] );
      ( "cycle_counter",
        [
          Alcotest.test_case "measure subtracts overhead" `Quick
            test_cycle_counter_measure;
          Alcotest.test_case "read pays barrier" `Quick
            test_cycle_counter_read_pays_barrier;
        ] );
    ]
