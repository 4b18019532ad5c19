(* Tests for Armvirt_engine: cycles arithmetic, the event heap, the
   effect-based simulator and its synchronization primitives. *)

module Cycles = Armvirt_engine.Cycles
module Heap = Armvirt_engine.Heap
module Sim = Armvirt_engine.Sim

let cycles_of n = Cycles.of_int n

(* --- Cycles -------------------------------------------------------- *)

let test_cycles_basics () =
  Alcotest.(check int) "zero" 0 (Cycles.to_int Cycles.zero);
  Alcotest.(check int) "one" 1 (Cycles.to_int Cycles.one);
  Alcotest.(check int) "add" 30 Cycles.(to_int (of_int 10 + of_int 20));
  Alcotest.(check int) "sub" 5 Cycles.(to_int (of_int 15 - of_int 10))

let test_cycles_errors () =
  Alcotest.check_raises "negative of_int"
    (Invalid_argument "Cycles.of_int: negative cycle count") (fun () ->
      ignore (Cycles.of_int (-1)));
  Alcotest.check_raises "negative sub"
    (Invalid_argument "Cycles.sub: negative result") (fun () ->
      ignore (Cycles.sub (cycles_of 1) (cycles_of 2)))

let test_cycles_time_conversion () =
  (* 2400 cycles at 2.4 GHz is exactly one microsecond. *)
  Alcotest.(check (float 1e-9)) "to_us" 1.0 (Cycles.to_us ~hz:2.4e9 (cycles_of 2400));
  Alcotest.(check int) "of_us roundtrip" 2400
    (Cycles.to_int (Cycles.of_us ~hz:2.4e9 1.0));
  Alcotest.(check (float 1e-9)) "x86 freq" 4.0
    (Cycles.to_us ~hz:2.1e9 (cycles_of 8400))

let test_cycles_pp () =
  Alcotest.(check string) "thousands separators" "6,500"
    (Format.asprintf "%a" Cycles.pp (cycles_of 6500));
  Alcotest.(check string) "small" "71" (Format.asprintf "%a" Cycles.pp (cycles_of 71));
  Alcotest.(check string) "millions" "1,234,567"
    (Format.asprintf "%a" Cycles.pp (cycles_of 1234567))

let prop_cycles_add_commutative =
  QCheck.Test.make ~name:"cycles add commutative"
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) ->
      Cycles.(equal (of_int a + of_int b) (of_int b + of_int a)))

let prop_cycles_sub_inverse =
  QCheck.Test.make ~name:"cycles (a+b)-b = a"
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) ->
      Cycles.(equal (of_int a + of_int b - of_int b) (of_int a)))

(* --- Heap ---------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  Heap.push h ~time:30 ~seq:0 "c";
  Heap.push h ~time:10 ~seq:1 "a";
  Heap.push h ~time:20 ~seq:2 "b";
  let pop () =
    match Heap.pop h with Some (_, _, v) -> v | None -> "empty"
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    [ first; second; third ];
  Alcotest.(check bool) "empty after" true (Heap.is_empty h)

let test_heap_fifo_at_same_time () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:5 ~seq:i i
  done;
  let order = List.init 10 (fun _ ->
      match Heap.pop h with Some (_, _, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "seq breaks ties" (List.init 10 Fun.id) order

let prop_heap_random_pairs =
  (* Push arbitrary (time, seq) pairs and check the popped key sequence
     equals the sorted key list, with every payload accounted for. In
     the simulator seq is a unique global counter, so we inject
     uniqueness the same way: the push index breaks the random seq. *)
  QCheck.Test.make ~name:"heap pops equal stable sort of (time, seq)"
    QCheck.(list (pair (int_bound 100) (int_bound 100)))
    (fun pairs ->
      let n = List.length pairs in
      let h = Heap.create () in
      List.iteri
        (fun i (time, seq) -> Heap.push h ~time ~seq:((seq * n) + i) i)
        pairs;
      let rec drain acc =
        match Heap.pop h with
        | Some (t, s, v) -> drain ((t, s, v) :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      let expected =
        List.mapi (fun i (t, s) -> (t, (s * n) + i, i)) pairs
        |> List.stable_sort (fun (t1, s1, _) (t2, s2, _) ->
               match Int.compare t1 t2 with
               | 0 -> Int.compare s1 s2
               | c -> c)
      in
      popped = expected)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted by (time, seq)"
    QCheck.(list (int_bound 1000))
    (fun times ->
      let h = Heap.create () in
      List.iteri (fun seq time -> Heap.push h ~time ~seq time) times;
      let rec drain acc =
        match Heap.pop h with
        | Some (t, _, _) -> drain (t :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort Int.compare times)

let test_heap_min_time () =
  (* Run-ahead reads the earliest queued time without removing it. *)
  let h = Heap.create () in
  Heap.push h ~time:7 ~seq:0 "x";
  Heap.push h ~time:3 ~seq:1 "y";
  Heap.push h ~time:9 ~seq:2 "z";
  Alcotest.(check int) "earliest time" 3 (Heap.min_time h);
  Alcotest.(check int) "size unchanged" 3 (Heap.size h);
  Alcotest.(check string) "pop_min returns it" "y" (Heap.pop_min h);
  Alcotest.(check int) "next earliest" 7 (Heap.min_time h)

let test_heap_empty_errors () =
  let h : unit Heap.t = Heap.create () in
  Alcotest.check_raises "min_time on empty"
    (Invalid_argument "Heap.min_time: empty heap") (fun () ->
      ignore (Heap.min_time h));
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Heap.pop_min: empty heap") (fun () ->
      ignore (Heap.pop_min h))

let test_heap_order_across_grow () =
  (* 100 pushes cross the 16 -> 32 -> 64 -> 128 capacity doublings;
     decreasing times force a full sift-up each push. *)
  let h = Heap.create () in
  let n = 100 in
  for i = 0 to n - 1 do
    Heap.push h ~time:(n - i) ~seq:i i
  done;
  let popped = List.init n (fun _ -> Heap.pop_min h) in
  Alcotest.(check (list int)) "latest pushes pop first"
    (List.init n (fun j -> n - 1 - j))
    popped;
  Alcotest.(check bool) "empty after" true (Heap.is_empty h)

let test_heap_pop_liveness () =
  (* The pre-PR heap left popped entries reachable from the backing
     array, pinning their payloads until a later push overwrote the
     slot. A popped value must be collectable immediately. *)
  let h = Heap.create () in
  let w = Weak.create 1 in
  let setup () =
    let v = ref 42 in
    Weak.set w 0 (Some v);
    Heap.push h ~time:0 ~seq:0 v;
    (* A second entry keeps the heap (and its backing array) live. *)
    Heap.push h ~time:1 ~seq:1 (ref 0)
  in
  setup ();
  let drop_popped () = ignore (Heap.pop_min h) in
  drop_popped ();
  Gc.full_major ();
  Alcotest.(check bool) "popped value collected" false (Weak.check w 0);
  Alcotest.(check int) "remaining entry untouched" 1 (Heap.size h)

(* One heap against a sorted-list model: each push takes the next
   [seq], as the engine does, so no two keys tie; each pop and peek
   must read the model's head. A program runs to a few hundred
   entries, crossing the 16 -> 32 -> 64 -> 128 -> 256 doublings while
   pops keep freeing slots for later pushes to reuse. *)
type heap_op = Push of int | Pop | Peek

let arb_heap_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (6, map (fun t -> Push t) (int_bound 40));
        (3, return Pop);
        (1, return Peek);
      ]
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | Push t -> "push " ^ string_of_int t
             | Pop -> "pop"
             | Peek -> "peek")
           ops))
    (list_size (int_range 0 1500) op)

let prop_heap_model =
  QCheck.Test.make ~name:"heap matches a sorted-list model" ~count:100
    arb_heap_ops (fun ops ->
      let h = Heap.create () in
      let model = ref [] and seq = ref 0 in
      let rec insert e = function
        | [] -> [ e ]
        | x :: rest as l ->
            if compare e x < 0 then e :: l else x :: insert e rest
      in
      let head_matches () =
        match !model with
        | [] ->
            Heap.is_empty h
            && (match Heap.min_value h with
               | _ -> false
               | exception Invalid_argument _ -> true)
        | (time, s, v) :: _ ->
            Heap.min_time h = time && Heap.min_seq h = s
            && String.equal (Heap.min_value h) v
      in
      List.for_all
        (fun op ->
          (match op with
          | Push time ->
              let v = Printf.sprintf "v%d" !seq in
              Heap.push h ~time ~seq:!seq v;
              model := insert (time, !seq, v) !model;
              incr seq
          | Pop -> (
              match !model with
              | [] -> ()
              | (_, _, v) :: rest ->
                  model := rest;
                  if not (String.equal (Heap.pop_min h) v) then
                    QCheck.Test.fail_reportf "pop_min did not return %s" v)
          | Peek -> ());
          Heap.size h = List.length !model && head_matches ())
        ops
      && List.for_all
           (fun (_, _, v) -> String.equal (Heap.pop_min h) v)
           !model
      && Heap.is_empty h)

(* --- Fifo ---------------------------------------------------------- *)

module Fifo = Armvirt_engine.Fifo

let test_fifo_order_across_wraparound () =
  let q = Fifo.create () in
  (* Push/pop enough to wrap the ring head past several grow cycles. *)
  let popped = ref [] in
  for i = 1 to 5 do
    Fifo.push q i
  done;
  for _ = 1 to 3 do
    popped := Fifo.pop q :: !popped
  done;
  for i = 6 to 45 do
    Fifo.push q i
  done;
  while not (Fifo.is_empty q) do
    popped := Fifo.pop q :: !popped
  done;
  Alcotest.(check (list int)) "strict FIFO across grow + wrap"
    (List.init 45 (fun i -> i + 1))
    (List.rev !popped);
  Alcotest.(check int) "length zero" 0 (Fifo.length q)

let test_fifo_pop_empty_errors () =
  let q : int Fifo.t = Fifo.create () in
  Alcotest.check_raises "pop on empty" (Invalid_argument "Fifo.pop: empty")
    (fun () -> ignore (Fifo.pop q))

(* --- Sim ----------------------------------------------------------- *)

let test_sim_delay_advances_time () =
  let sim = Sim.create () in
  let finish = ref Cycles.zero in
  Sim.spawn sim ~name:"delayer" (fun () ->
      Sim.delay (cycles_of 100);
      Sim.delay (cycles_of 23);
      finish := Sim.current_time ());
  Sim.run sim;
  Alcotest.(check int) "time accumulated" 123 (Cycles.to_int !finish);
  Alcotest.(check int) "sim clock" 123 (Cycles.to_int (Sim.now sim))

let test_sim_interleaving_deterministic () =
  let sim = Sim.create () in
  let log = ref [] in
  let record tag = log := tag :: !log in
  Sim.spawn sim ~name:"a" (fun () ->
      record "a0";
      Sim.delay (cycles_of 10);
      record "a10";
      Sim.delay (cycles_of 20);
      record "a30");
  Sim.spawn sim ~name:"b" (fun () ->
      record "b0";
      Sim.delay (cycles_of 15);
      record "b15");
  Sim.run sim;
  Alcotest.(check (list string)) "global cycle order"
    [ "a0"; "b0"; "a10"; "b15"; "a30" ]
    (List.rev !log)

let test_sim_outside_process_errors () =
  Alcotest.check_raises "delay outside"
    (Invalid_argument "Sim.delay called outside a simulation process")
    (fun () -> Sim.delay Cycles.one)

(* --- Timed callbacks --------------------------------------------------- *)

let test_sim_at_past_rejected () =
  let sim = Sim.create () in
  Sim.spawn sim ~name:"p" (fun () -> Sim.delay (cycles_of 10));
  Sim.run sim;
  Alcotest.check_raises "at before now"
    (Invalid_argument "Sim.at: cycle 5 is before the current cycle 10")
    (fun () -> Sim.at sim (cycles_of 5) ignore);
  (* The current cycle itself is not in the past. *)
  let ran = ref false in
  Sim.at sim (cycles_of 10) (fun () -> ran := true);
  Sim.run sim;
  Alcotest.(check bool) "at now runs" true !ran

(* A callback reads the clock, and a process it forks starts at once, at
   the callback's cycle; when the process first blocks, the callback
   carries on at that same cycle. One event for the callback, one for
   the forked process's delay, none for the fork. *)
let test_sim_callback_and_fork () =
  let sim = Sim.create () in
  let log = ref [] in
  let note what = log := (what, Cycles.to_int (Sim.current_time ())) :: !log in
  Sim.at sim (cycles_of 7) (fun () ->
      note "callback";
      Sim.fork sim ~name:"child" (fun () ->
          note "forked";
          Sim.delay (cycles_of 3);
          note "child resumed");
      note "after fork");
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "order and clock"
    [ ("callback", 7); ("forked", 7); ("after fork", 7); ("child resumed", 10) ]
    (List.rev !log);
  Alcotest.(check int) "events" 2 (Sim.events_processed sim)

(* Each blocking operation, tried inside a callback: the message it
   raised, or "returned". *)
let blocking_ops =
  [
    ("delay", fun () -> Sim.delay Cycles.one);
    ("yield", Sim.yield);
    ("suspend", fun () -> Sim.suspend (fun (_ : unit -> unit) -> ()));
    ("spawn_here", fun () -> Sim.spawn_here ~name:"child" ignore);
  ]

let try_in_callback sim f =
  let got = ref "not run" in
  Sim.at sim (cycles_of 4) (fun () ->
      got :=
        match f () with
        | () -> "returned"
        | exception Invalid_argument msg -> msg);
  got

let refusal what =
  Printf.sprintf "Sim.%s called inside a timed callback; wrap it in Sim.fork"
    what

let test_sim_blocking_in_callback_rejected () =
  List.iter
    (fun (what, f) ->
      let sim = Sim.create () in
      let got = try_in_callback sim f in
      Sim.run sim;
      Alcotest.(check string) what (refusal what) !got)
    blocking_ops

(* In a sim run from another sim's process, an unguarded effect from a
   callback would reach the outer process's handler and park it. *)
let test_sim_blocking_in_nested_callback_rejected () =
  List.iter
    (fun (what, f) ->
      let outer = Sim.create () in
      let got = ref "not run" and inner_clock = ref (-1) and clock = ref (-1) in
      Sim.spawn outer ~name:"host" (fun () ->
          Sim.delay (cycles_of 100);
          let inner = Sim.create () in
          let attempt = try_in_callback inner f in
          Sim.at inner (cycles_of 6) (fun () ->
              inner_clock := Cycles.to_int (Sim.current_time ()));
          Sim.run inner;
          got := !attempt;
          clock := Cycles.to_int (Sim.current_time ()));
      Sim.run outer;
      Alcotest.(check string) what (refusal what) !got;
      Alcotest.(check int) (what ^ ": inner clock") 6 !inner_clock;
      Alcotest.(check int) (what ^ ": outer process not moved") 100 !clock;
      Alcotest.(check int) (what ^ ": outer sim") 100
        (Cycles.to_int (Sim.now outer)))
    blocking_ops

let test_sim_signal_broadcast () =
  let sim = Sim.create () in
  let s = Sim.Signal.create sim in
  let woken = ref 0 in
  for i = 1 to 3 do
    Sim.spawn sim ~name:(Printf.sprintf "waiter%d" i) (fun () ->
        Sim.Signal.wait s;
        incr woken)
  done;
  Sim.spawn sim ~name:"notifier" (fun () ->
      Sim.delay (cycles_of 50);
      Alcotest.(check int) "three waiters parked" 3 (Sim.Signal.waiters s);
      Sim.Signal.notify s);
  Sim.run sim;
  Alcotest.(check int) "all woken" 3 !woken

let test_sim_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Sim.Mailbox.create sim in
  let received = ref [] in
  Sim.spawn sim ~name:"producer" (fun () ->
      List.iter (fun v -> Sim.Mailbox.send mb v) [ 1; 2; 3 ]);
  Sim.spawn sim ~name:"consumer" (fun () ->
      for _ = 1 to 3 do
        received := Sim.Mailbox.recv mb :: !received
      done);
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3 ] (List.rev !received)

let test_sim_mailbox_blocking_recv () =
  let sim = Sim.create () in
  let mb = Sim.Mailbox.create sim in
  let got = ref (-1) in
  let when_got = ref Cycles.zero in
  Sim.spawn sim ~name:"consumer" (fun () ->
      got := Sim.Mailbox.recv mb;
      when_got := Sim.current_time ());
  Sim.spawn sim ~name:"producer" (fun () ->
      Sim.delay (cycles_of 77);
      Sim.Mailbox.send mb 42);
  Sim.run sim;
  Alcotest.(check int) "value" 42 !got;
  Alcotest.(check int) "woken at send time" 77 (Cycles.to_int !when_got)

let test_sim_resource_serializes () =
  let sim = Sim.create () in
  let r = Sim.Resource.create sim ~capacity:1 in
  let finish = Array.make 2 0 in
  for i = 0 to 1 do
    Sim.spawn sim ~name:(Printf.sprintf "user%d" i) (fun () ->
        Sim.Resource.use r (cycles_of 100);
        finish.(i) <- Cycles.to_int (Sim.current_time ()))
  done;
  Sim.run sim;
  Alcotest.(check int) "first done at 100" 100 finish.(0);
  Alcotest.(check int) "second serialized to 200" 200 finish.(1)

let test_sim_resource_capacity_two () =
  let sim = Sim.create () in
  let r = Sim.Resource.create sim ~capacity:2 in
  let finish = Array.make 3 0 in
  for i = 0 to 2 do
    Sim.spawn sim ~name:(Printf.sprintf "user%d" i) (fun () ->
        Sim.Resource.use r (cycles_of 100);
        finish.(i) <- Cycles.to_int (Sim.current_time ()))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "two run in parallel, third waits"
    [ 100; 100; 200 ]
    (Array.to_list finish)

let test_sim_deadlock_detection () =
  let sim = Sim.create () in
  let s = Sim.Signal.create sim in
  Sim.spawn sim ~name:"stuck-waiter" (fun () -> Sim.Signal.wait s);
  (match Sim.run sim with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Deadlock names ->
      Alcotest.(check bool) "names the process" true
        (String.length names > 0
        && String.equal names "stuck-waiter"))

let test_sim_mailbox_recv_fairness () =
  (* Many consumers park before any value arrives; sends must wake them
     in park (spawn) order, not reversed or shuffled. *)
  let sim = Sim.create () in
  let mb = Sim.Mailbox.create sim in
  let log = ref [] in
  for i = 0 to 4 do
    Sim.spawn sim ~name:(Printf.sprintf "consumer%d" i) (fun () ->
        let v = Sim.Mailbox.recv mb in
        log := (i, v) :: !log)
  done;
  Sim.spawn sim ~name:"producer" (fun () ->
      Sim.delay (cycles_of 5);
      for v = 100 to 104 do
        Sim.Mailbox.send mb v
      done);
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "first parked consumer gets first value"
    [ (0, 100); (1, 101); (2, 102); (3, 103); (4, 104) ]
    (List.rev !log)

let test_sim_resource_acquire_fairness () =
  (* A capacity-1 resource with many waiters must grant in park order. *)
  let sim = Sim.create () in
  let r = Sim.Resource.create sim ~capacity:1 in
  let order = ref [] in
  for i = 0 to 4 do
    Sim.spawn sim ~name:(Printf.sprintf "user%d" i) (fun () ->
        Sim.Resource.use r (cycles_of 10);
        order := i :: !order)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO grant order" [ 0; 1; 2; 3; 4 ]
    (List.rev !order)

let test_sim_spawn_here () =
  let sim = Sim.create () in
  let child_time = ref Cycles.zero in
  Sim.spawn sim ~name:"parent" (fun () ->
      Sim.delay (cycles_of 40);
      Sim.spawn_here ~name:"child" (fun () ->
          Sim.delay (cycles_of 2);
          child_time := Sim.current_time ()));
  Sim.run sim;
  Alcotest.(check int) "child starts at parent's time" 42
    (Cycles.to_int !child_time)

let test_sim_yield_is_fair () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim ~name:"a" (fun () ->
      log := "a1" :: !log;
      Sim.yield ();
      log := "a2" :: !log);
  Sim.spawn sim ~name:"b" (fun () -> log := "b" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "yield lets b run" [ "a1"; "b"; "a2" ]
    (List.rev !log)

let test_sim_exception_propagates () =
  let sim = Sim.create () in
  Sim.spawn sim ~name:"raiser" (fun () ->
      Sim.delay (cycles_of 10);
      failwith "boom");
  (match Sim.run sim with
  | () -> Alcotest.fail "expected the process exception to escape"
  | exception Failure msg -> Alcotest.(check string) "payload" "boom" msg)

let test_sim_resource_released_on_exception () =
  let sim = Sim.create () in
  let r = Sim.Resource.create sim ~capacity:1 in
  let second_ran = ref false in
  Sim.spawn sim ~name:"crasher" (fun () ->
      match
        Sim.Resource.acquire r;
        (try Sim.delay (cycles_of 10) with e -> Sim.Resource.release r; raise e);
        Sim.Resource.release r
      with
      | () -> ()
      | exception Failure _ -> ());
  Sim.spawn sim ~name:"waiter" (fun () ->
      Sim.Resource.acquire r;
      second_ran := true;
      Sim.Resource.release r);
  Sim.run sim;
  Alcotest.(check bool) "resource not leaked" true !second_ran;
  Alcotest.(check int) "capacity restored" 1 (Sim.Resource.available r)

(* The second wake raises, naming the sleeper as [Sim.spawn] does; the
   sleeper is pid 3. *)
let double_wake_message ?name ?number () =
  let sim = Sim.create () in
  let stash = ref None and message = ref "" in
  Sim.spawn sim ~name:"waker" (fun () ->
      Sim.delay (cycles_of 5);
      let wake = Option.get !stash in
      wake ();
      match wake () with
      | () -> Alcotest.fail "double wake must be rejected"
      | exception Invalid_argument m -> message := m);
  Sim.spawn sim ignore;
  Sim.spawn sim ignore;
  Sim.spawn sim ?name ?number (fun () ->
      Sim.suspend (fun wake -> stash := Some wake));
  Sim.run sim;
  !message

let test_sim_double_wake_rejected () =
  List.iter
    (fun (expected, message) ->
      Alcotest.(check string) expected expected message)
    [
      ( "Sim: process sleeper woken twice",
        double_wake_message ~name:"sleeper" () );
      ( "Sim: process req-7 woken twice",
        double_wake_message ~name:"req" ~number:7 () );
      ("Sim: process process-3 woken twice", double_wake_message ());
    ]

let deadlock_names spawn_order =
  let sim = Sim.create () in
  let s = Sim.Signal.create sim in
  List.iter
    (fun n -> Sim.spawn sim ~name:n (fun () -> Sim.Signal.wait s))
    spawn_order;
  match Sim.run sim with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Deadlock names -> names

let test_sim_deadlock_names_sorted () =
  let a = deadlock_names [ "zeta"; "alpha"; "mid" ] in
  let b = deadlock_names [ "mid"; "zeta"; "alpha" ] in
  Alcotest.(check string) "names sorted" "alpha, mid, zeta" a;
  Alcotest.(check string) "independent of park order" a b

let test_sim_events_processed () =
  let run () =
    let sim = Sim.create () in
    Sim.spawn sim ~name:"p" (fun () ->
        for _ = 1 to 3 do
          Sim.delay Cycles.one
        done);
    Sim.run sim;
    Sim.events_processed sim
  in
  (* One spawn event plus three delay expiries. *)
  Alcotest.(check int) "exact event count" 4 (run ());
  Alcotest.(check int) "deterministic across runs" (run ()) (run ())

let null_observer =
  {
    Sim.on_spawn = (fun ~id:_ ~name:_ ~at:_ -> ());
    on_park = (fun ~id:_ ~name:_ ~at:_ -> ());
    on_wake = (fun ~id:_ ~name:_ ~at:_ -> ());
    on_contention = (fun ~resource:_ ~proc:_ ~at:_ ~waited:_ -> ());
    on_queue_depth = (fun ~mailbox:_ ~at:_ ~depth:_ -> ());
  }

(* A name is formatted only when read, so every reader must see the
   bytes the eager [Printf.sprintf] gave: ["req-7"] for a numbered
   process and ["process-<pid>"] for an unnamed one, here pid 3. *)
let test_sim_names_as_read () =
  let sim = Sim.create () in
  let spawned = ref [] and parked = ref [] and who = ref [] in
  Sim.set_observer sim
    (Some
       {
         null_observer with
         Sim.on_spawn =
           (fun ~id ~name ~at:_ -> spawned := (id, name) :: !spawned);
         on_park = (fun ~id:_ ~name ~at:_ -> parked := name :: !parked);
       });
  let s = Sim.Signal.create sim in
  let stuck () =
    who := Sim.whoami () :: !who;
    Sim.Signal.wait s
  in
  for _ = 0 to 2 do
    Sim.spawn sim (fun () -> Sim.delay Cycles.one)
  done;
  Sim.spawn sim stuck;
  Sim.spawn sim ~name:"req" ~number:7 stuck;
  Sim.spawn sim ~name:"plain" stuck;
  (match Sim.run sim with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Deadlock names ->
      Alcotest.(check string)
        "deadlock report" "plain, process-3, req-7" names);
  Alcotest.(check (list (pair int string)))
    "on_spawn"
    [
      (0, "process-0");
      (1, "process-1");
      (2, "process-2");
      (3, "process-3");
      (4, "req-7");
      (5, "plain");
    ]
    (List.rev !spawned);
  Alcotest.(check (list string)) "on_park" [ "process-3"; "req-7"; "plain" ]
    (List.rev !parked);
  Alcotest.(check (list string)) "whoami" [ "process-3"; "req-7"; "plain" ]
    (List.rev !who);
  Alcotest.(check string) "whoami outside a process" "main" (Sim.whoami ())

let test_sim_numbered_spawn_here_and_fork () =
  let sim = Sim.create () in
  let who = ref [] in
  let note () = who := Sim.whoami () :: !who in
  Sim.spawn sim ~number:5 (fun () ->
      note ();
      Sim.spawn_here ~name:"req" ~number:12 note;
      Sim.spawn_here note;
      Sim.fork sim ~name:"fork" ~number:0 note;
      Sim.fork sim note);
  Sim.run sim;
  Alcotest.(check (list string)) "names"
    [ "process-5"; "fork-0"; "process-2"; "req-12"; "process-4" ]
    (List.rev !who)

let test_sim_mailbox_depth_transitions () =
  (* Depth events fire exactly on queue-length transitions: the direct
     send-to-parked-receiver hand-off bypasses the queue and must stay
     silent (it used to re-report the unchanged depth). *)
  let sim = Sim.create () in
  let depths = ref [] in
  Sim.set_observer sim
    (Some
       {
         null_observer with
         Sim.on_queue_depth =
           (fun ~mailbox:_ ~at:_ ~depth -> depths := depth :: !depths);
       });
  let mb = Sim.Mailbox.create ~name:"mb" sim in
  Sim.spawn sim ~name:"consumer" (fun () ->
      (* Parks first; the matching send hands off directly. *)
      ignore (Sim.Mailbox.recv mb);
      Sim.delay (cycles_of 10);
      ignore (Sim.Mailbox.recv mb);
      ignore (Sim.Mailbox.recv mb));
  Sim.spawn sim ~name:"producer" (fun () ->
      Sim.delay Cycles.one;
      Sim.Mailbox.send mb 1;
      (* direct handoff: no depth event *)
      Sim.Mailbox.send mb 2;
      (* enqueued: depth 1 *)
      Sim.Mailbox.send mb 3 (* enqueued: depth 2 *));
  Sim.run sim;
  Alcotest.(check (list int)) "transitions only" [ 1; 2; 1; 0 ]
    (List.rev !depths)

let prop_sim_determinism =
  QCheck.Test.make ~name:"two identical runs produce identical traces"
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 1 100))
    (fun delays ->
      let run () =
        let sim = Sim.create () in
        let log = ref [] in
        List.iteri
          (fun i d ->
            Sim.spawn sim ~name:(string_of_int i) (fun () ->
                Sim.delay (cycles_of d);
                log := (i, Cycles.to_int (Sim.current_time ())) :: !log))
          delays;
        Sim.run sim;
        !log
      in
      run () = run ())

(* Run-ahead finds the running sim through a per-domain slot, which a
   sim takes from the domain that runs it, not the one that built it.
   Two sims built here run at once, one on another domain: [queued]
   switches processes on every event, while [ahead] runs ahead on every
   delay and reads its clock in between. Each must log exactly what a
   run on its own logs. *)
let test_sim_runs_on_any_domain () =
  let build ~procs ~steps ~reads =
    let sim = Sim.create () in
    let log = ref [] in
    for _ = 1 to procs do
      Sim.spawn sim (fun () ->
          for _ = 1 to steps do
            Sim.delay Cycles.one;
            let seen = ref 0 in
            for _ = 1 to reads do
              seen := !seen + Cycles.to_int (Sim.current_time ())
            done;
            log := !seen :: !log
          done)
    done;
    (sim, log)
  in
  let queued () = build ~procs:8 ~steps:20_000 ~reads:1
  and ahead () = build ~procs:1 ~steps:100_000 ~reads:16 in
  let alone build =
    let sim, log = build () in
    Sim.run sim;
    !log
  in
  let queued_alone = alone queued and ahead_alone = alone ahead in
  let q, q_log = queued () and a, a_log = ahead () in
  let started = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        Atomic.set started true;
        Sim.run q)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Sim.run a;
  Domain.join other;
  Alcotest.(check bool)
    "queued sim on another domain" true (!q_log = queued_alone);
  Alcotest.(check bool)
    "run-ahead sim here meanwhile" true (!a_log = ahead_alone)

(* --- Run-ahead against the queue-only engine --------------------------- *)

(* Sim finishes a delay in place when no other event can run first;
   Reference_sim is the same engine with every delay going through the
   queue. One generated program drives both, and their logs — each
   operation with the clock it saw, every escaped exception or deadlock,
   and [now] and [events_processed] after each run — must be equal. *)

type op =
  | Delay of int
  | Yield
  | Clock
  | Send of int
  | Recv of int
  | Notify of int
  | Wait of int
  | Use of int * int
  | Spawn of op list  (* spawn_here a sub-program *)
  | Nested of op list list  (* run a fresh sim inside this process *)
  | At of int * action list  (* a timed callback [n] cycles on *)
  | Raise

(* What a callback does, logging the clock after each step. *)
and action = Cb_send of int | Cb_notify of int | Cb_fork of op list

let rec show_op = function
  | Delay n -> Printf.sprintf "delay %d" n
  | Yield -> "yield"
  | Clock -> "clock"
  | Send m -> Printf.sprintf "send m%d" m
  | Recv m -> Printf.sprintf "recv m%d" m
  | Notify s -> Printf.sprintf "notify s%d" s
  | Wait s -> Printf.sprintf "wait s%d" s
  | Use (r, n) -> Printf.sprintf "use r%d %d" r n
  | Spawn ops -> Printf.sprintf "spawn [%s]" (show_ops ops)
  | Nested procs ->
      Printf.sprintf "nested [%s]"
        (String.concat " | " (List.map show_ops procs))
  | At (n, acts) ->
      Printf.sprintf "at +%d {%s}" n
        (String.concat "; " (List.map show_action acts))
  | Raise -> "raise"

and show_action = function
  | Cb_send m -> Printf.sprintf "send m%d" m
  | Cb_notify s -> Printf.sprintf "notify s%d" s
  | Cb_fork ops -> Printf.sprintf "fork [%s]" (show_ops ops)

and show_ops ops = String.concat "; " (List.map show_op ops)

(* 1-4 processes of up to 25 operations, sub-programs two levels deep;
   at depth > 0 a process raises in 1 case out of 22. A callback sends
   and notifies at any depth, and forks sub-programs above depth 0. *)
let arb_program =
  let open QCheck.Gen in
  let rec ops depth len = list_size (int_bound len) (op depth)
  and action depth =
    let plain =
      [
        (2, map (fun m -> Cb_send m) (int_bound 1));
        (2, map (fun s -> Cb_notify s) (int_bound 1));
      ]
    in
    if depth = 0 then frequency plain
    else
      frequency ((2, map (fun sub -> Cb_fork sub) (ops (depth - 1) 8)) :: plain)
  and op depth =
    let leaf =
      [
        (4, map (fun n -> Delay n) (int_bound 6));
        (2, return Yield);
        (1, return Clock);
        (2, map (fun m -> Send m) (int_bound 1));
        (2, map (fun m -> Recv m) (int_bound 1));
        (2, map (fun s -> Notify s) (int_bound 1));
        (2, map (fun s -> Wait s) (int_bound 1));
        (2, map2 (fun r n -> Use (r, n)) (int_bound 1) (int_bound 6));
        ( 2,
          map2
            (fun n acts -> At (n, acts))
            (int_bound 6)
            (list_size (int_bound 3) (action depth)) );
        (1, return Raise);
      ]
    in
    if depth = 0 then frequency leaf
    else
      frequency
        ((1, map (fun sub -> Spawn sub) (ops (depth - 1) 8))
        :: ( 1,
             map
               (fun ps -> Nested ps)
               (list_size (int_range 1 2) (ops (depth - 1) 8)) )
        :: leaf)
  in
  QCheck.make
    ~print:(fun procs -> String.concat "\n" (List.map show_ops procs))
    (list_size (int_range 1 4) (ops 2 25))

(* What the differential program uses, met by both engines. *)
module type ENGINE = sig
  type t

  exception Deadlock of string

  val create : unit -> t
  val now : t -> Cycles.t
  val events_processed : t -> int
  val spawn : t -> ?name:string -> ?number:int -> (unit -> unit) -> unit
  val run : t -> unit
  val delay : Cycles.t -> unit
  val yield : unit -> unit
  val current_time : unit -> Cycles.t
  val spawn_here : ?name:string -> ?number:int -> (unit -> unit) -> unit
  val at : t -> Cycles.t -> (unit -> unit) -> unit
  val fork : t -> ?name:string -> ?number:int -> (unit -> unit) -> unit

  module Signal : sig
    type sim := t
    type t

    val create : sim -> t
    val wait : t -> unit
    val notify : t -> unit
  end

  module Mailbox : sig
    type sim := t
    type 'a t

    val create : ?name:string -> sim -> 'a t
    val send : 'a t -> 'a -> unit
    val recv : 'a t -> 'a
  end

  module Resource : sig
    type sim := t
    type t

    val create : ?name:string -> sim -> capacity:int -> t
    val use : t -> Cycles.t -> unit
  end
end

module Differential (E : ENGINE) = struct
  type world = {
    sim : E.t;
    mailboxes : int E.Mailbox.t array;
    signals : E.Signal.t array;
    resources : E.Resource.t array;
    log : string list ref;
  }

  let world log =
    let sim = E.create () in
    {
      sim;
      mailboxes =
        Array.init 2 (fun i ->
            E.Mailbox.create ~name:(Printf.sprintf "m%d" i) sim);
      signals = Array.init 2 (fun _ -> E.Signal.create sim);
      resources =
        Array.init 2 (fun i ->
            E.Resource.create ~name:(Printf.sprintf "r%d" i) sim ~capacity:1);
      log;
    }

  let record w fmt = Printf.ksprintf (fun line -> w.log := line :: !(w.log)) fmt

  (* Runs [f] until it returns or deadlocks; a process that raises is
     gone, so [f] is re-entered for the rest. *)
  let rec settle w label f =
    match f () with
    | () -> record w "%s done" label
    | exception E.Deadlock names -> record w "%s deadlock [%s]" label names
    | exception Failure who ->
        record w "%s raised %s" label who;
        settle w label f

  let finish w label f =
    settle w label f;
    record w "%s now=%d events=%d" label
      (Cycles.to_int (E.now w.sim))
      (E.events_processed w.sim)

  let rec exec w name ops = List.iteri (fun i op -> step w name i op) ops

  and step w name i op =
    let note what =
      record w "%s %s @%d" name what (Cycles.to_int (E.current_time ()))
    in
    match op with
    | Delay n ->
        E.delay (cycles_of n);
        note "delay"
    | Yield ->
        E.yield ();
        note "yield"
    | Clock -> note "clock"
    | Send m ->
        E.Mailbox.send w.mailboxes.(m) i;
        note "send"
    | Recv m -> note (Printf.sprintf "recv %d" (E.Mailbox.recv w.mailboxes.(m)))
    | Notify s ->
        E.Signal.notify w.signals.(s);
        note "notify"
    | Wait s ->
        E.Signal.wait w.signals.(s);
        note "wait"
    | Use (r, n) ->
        E.Resource.use w.resources.(r) (cycles_of n);
        note "use"
    | Spawn sub ->
        (* Numbered, so a deadlock report also checks the engine's
           on-demand names against the oracle's eager ones. *)
        let child = Printf.sprintf "%s-%d" name i in
        E.spawn_here ~name ~number:i (fun () -> exec w child sub);
        note "spawn"
    | Nested procs ->
        let inner = world w.log in
        List.iteri
          (fun j sub ->
            let child = Printf.sprintf "%s/%d.%d" name i j in
            E.spawn inner.sim ~name:child (fun () -> exec inner child sub))
          procs;
        finish inner (name ^ " nested run") (fun () -> E.run inner.sim);
        note "nested"
    | At (n, acts) ->
        let cb = Printf.sprintf "%s/%d" name i in
        E.at w.sim
          (Cycles.add (E.current_time ()) (cycles_of n))
          (fun () -> callback w cb acts);
        note "at"
    | Raise ->
        note "raise";
        failwith name

  (* The queue-only engine has no clock for a callback to read through
     [current_time], so a callback reads its sim's. *)
  and callback w name acts =
    let note what = record w "%s %s @%d" name what (Cycles.to_int (E.now w.sim)) in
    note "callback";
    List.iteri
      (fun j act ->
        match act with
        | Cb_send m ->
            E.Mailbox.send w.mailboxes.(m) (100 + j);
            note "send"
        | Cb_notify s ->
            E.Signal.notify w.signals.(s);
            note "notify"
        | Cb_fork sub ->
            (* Unnamed: the engine calls it process-<pid>. *)
            let child = Printf.sprintf "%s/f%d" name j in
            E.fork w.sim (fun () -> exec w child sub);
            note "fork")
      acts

  let run procs =
    let w = world (ref []) in
    List.iteri
      (fun i ops ->
        let name = Printf.sprintf "p%d" i in
        E.spawn w.sim ~name (fun () -> exec w name ops))
      procs;
    finish w "run" (fun () -> E.run w.sim);
    List.rev !(w.log)
end

module Run_ahead = Differential (Sim)
module Queue_only = Differential (Reference_sim)

let prop_run_ahead_matches_queue =
  QCheck.Test.make ~name:"run-ahead matches the queue-only engine"
    ~count:20_000 arb_program (fun program ->
      Run_ahead.run program = Queue_only.run program)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "cycles",
        [
          Alcotest.test_case "basics" `Quick test_cycles_basics;
          Alcotest.test_case "errors" `Quick test_cycles_errors;
          Alcotest.test_case "time conversion" `Quick test_cycles_time_conversion;
          Alcotest.test_case "pretty printing" `Quick test_cycles_pp;
        ]
        @ qcheck [ prop_cycles_add_commutative; prop_cycles_sub_inverse ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo at same time" `Quick test_heap_fifo_at_same_time;
          Alcotest.test_case "min_time" `Quick test_heap_min_time;
          Alcotest.test_case "empty errors" `Quick test_heap_empty_errors;
          Alcotest.test_case "order across grow" `Quick
            test_heap_order_across_grow;
          Alcotest.test_case "popped values collectable" `Quick
            test_heap_pop_liveness;
        ]
        @ qcheck
            [ prop_heap_sorted; prop_heap_random_pairs; prop_heap_model ] );
      ( "fifo",
        [
          Alcotest.test_case "order across wraparound" `Quick
            test_fifo_order_across_wraparound;
          Alcotest.test_case "pop empty errors" `Quick
            test_fifo_pop_empty_errors;
        ] );
      ( "sim",
        [
          Alcotest.test_case "delay advances time" `Quick test_sim_delay_advances_time;
          Alcotest.test_case "interleaving deterministic" `Quick
            test_sim_interleaving_deterministic;
          Alcotest.test_case "outside process errors" `Quick
            test_sim_outside_process_errors;
          Alcotest.test_case "signal broadcast" `Quick test_sim_signal_broadcast;
          Alcotest.test_case "mailbox fifo" `Quick test_sim_mailbox_fifo;
          Alcotest.test_case "mailbox blocking recv" `Quick
            test_sim_mailbox_blocking_recv;
          Alcotest.test_case "resource serializes" `Quick test_sim_resource_serializes;
          Alcotest.test_case "resource capacity two" `Quick
            test_sim_resource_capacity_two;
          Alcotest.test_case "deadlock detection" `Quick test_sim_deadlock_detection;
          Alcotest.test_case "mailbox recv fairness" `Quick
            test_sim_mailbox_recv_fairness;
          Alcotest.test_case "resource acquire fairness" `Quick
            test_sim_resource_acquire_fairness;
          Alcotest.test_case "spawn_here" `Quick test_sim_spawn_here;
          Alcotest.test_case "yield fairness" `Quick test_sim_yield_is_fair;
          Alcotest.test_case "exception propagates" `Quick
            test_sim_exception_propagates;
          Alcotest.test_case "resource released on exception" `Quick
            test_sim_resource_released_on_exception;
          Alcotest.test_case "double wake rejected" `Quick
            test_sim_double_wake_rejected;
          Alcotest.test_case "names as read" `Quick test_sim_names_as_read;
          Alcotest.test_case "numbered spawn_here and fork" `Quick
            test_sim_numbered_spawn_here_and_fork;
          Alcotest.test_case "deadlock names sorted" `Quick
            test_sim_deadlock_names_sorted;
          Alcotest.test_case "events processed counter" `Quick
            test_sim_events_processed;
          Alcotest.test_case "mailbox depth transitions" `Quick
            test_sim_mailbox_depth_transitions;
          Alcotest.test_case "runs on any domain" `Quick
            test_sim_runs_on_any_domain;
          Alcotest.test_case "at rejects the past" `Quick
            test_sim_at_past_rejected;
          Alcotest.test_case "callback and fork" `Quick
            test_sim_callback_and_fork;
          Alcotest.test_case "no blocking in a callback" `Quick
            test_sim_blocking_in_callback_rejected;
          Alcotest.test_case "no blocking in a nested callback" `Quick
            test_sim_blocking_in_nested_callback_rejected;
        ]
        @ qcheck [ prop_sim_determinism; prop_run_ahead_matches_queue ] );
    ]
