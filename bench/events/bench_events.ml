(* Engine microbenchmarks: synthetic mixes that isolate one hot path of
   Engine.Sim each (raw heap churn, Delay self-rescheduling, Suspend/wake
   parking, Resource contention, Mailbox hand-off). The ledger's
   `engine-micros` replica runs each at scale 1 and reports host
   nanoseconds per event as engine.micro.*_ns.

   Event counts are deterministic (the engine is); only wall-clock
   seconds vary from host to host. Wall-clock timing is deliberate and
   allowed here: bench/ is outside the determinism linter's R2 scope
   (lib/ only). *)

module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Heap = Armvirt_engine.Heap

type result = { name : string; events : int; wall_s : float }

let wall f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Build the whole scenario first, then time only [Sim.run]: setup cost
   (process spawning closures, mailbox records) is not event throughput. *)
let timed_run ~name sim =
  let before = Sim.events_processed sim in
  let (), wall_s = wall (fun () -> Sim.run sim) in
  { name; events = Sim.events_processed sim - before; wall_s }

(* Raw heap push/pop at a steady depth of 4096 pending events: the sift
   paths and the per-push allocation story, nothing else. Ops counted
   manually (one push + one pop = 2 events' worth of heap work). *)
let bench_heap_churn ~scale () =
  let ops = 400_000 * scale in
  let depth = 4096 in
  let h = Heap.create () in
  for i = 0 to depth - 1 do
    Heap.push h ~time:(i * 7 land 1023) ~seq:i ()
  done;
  let seq = ref depth in
  let (), wall_s =
    wall (fun () ->
        (* min_time + pop_min is the engine's own pop sequence. *)
        for i = 1 to ops do
          let t = Heap.min_time h in
          ignore (Heap.pop_min h);
          Heap.push h ~time:(t + (i land 255)) ~seq:!seq ();
          incr seq
        done)
  in
  { name = "heap-churn"; events = 2 * ops; wall_s }

(* Empty-event churn: 512 processes, each a chain of short delays. Every
   event is a Delay expiry that does nothing but reschedule — the
   purest events/sec number the effect-handler engine can produce. *)
let bench_delay_churn ~scale () =
  let rounds = 1_500 * scale in
  let procs = 512 in
  let sim = Sim.create () in
  for p = 0 to procs - 1 do
    Sim.spawn sim (fun () ->
        for i = 1 to rounds do
          Sim.delay (Cycles.of_int ((p + i) land 63))
        done)
  done;
  timed_run ~name:"delay-churn" sim

(* Park/wake storm: 2048 processes blocked in Signal.wait, broadcast
   awake each round. Exercises the blocked-process bookkeeping (a
   pid-keyed table, O(1) per wake). *)
let bench_suspend_wake ~scale () =
  let rounds = 40 * scale in
  let waiters = 2048 in
  let sim = Sim.create () in
  let s = Sim.Signal.create sim in
  for w = 0 to waiters - 1 do
    Sim.spawn sim
      ~name:(Printf.sprintf "waiter-%04d" w)
      (fun () ->
        for _ = 1 to rounds do
          Sim.Signal.wait s
        done)
  done;
  Sim.spawn sim ~name:"waker" (fun () ->
      for _ = 1 to rounds do
        Sim.delay Cycles.one;
        Sim.Signal.notify s
      done);
  timed_run ~name:"suspend-wake" sim

(* FIFO semaphore contention: 256 processes sharing a capacity-4
   resource. Every acquire parks, every release wakes the next waiter. *)
let bench_resource ~scale () =
  let rounds = 250 * scale in
  let procs = 256 in
  let sim = Sim.create () in
  let r = Sim.Resource.create sim ~capacity:4 in
  for p = 0 to procs - 1 do
    Sim.spawn sim
      ~name:(Printf.sprintf "user-%03d" p)
      (fun () ->
        for _ = 1 to rounds do
          Sim.Resource.use r Cycles.one
        done)
  done;
  timed_run ~name:"resource-contend" sim

(* Mailbox ping-pong across 8 producer/consumer pairs. The consumer
   parks between messages, so sends alternate between the queued path
   and the direct-handoff path. *)
let bench_mailbox ~scale () =
  let msgs = 60_000 * scale in
  let pairs = 8 in
  let sim = Sim.create () in
  for p = 0 to pairs - 1 do
    let mb = Sim.Mailbox.create ~name:(Printf.sprintf "mb-%d" p) sim in
    Sim.spawn sim
      ~name:(Printf.sprintf "producer-%d" p)
      (fun () ->
        for i = 1 to msgs do
          Sim.Mailbox.send mb i;
          if i land 3 = 0 then Sim.delay Cycles.one
        done);
    Sim.spawn sim
      ~name:(Printf.sprintf "consumer-%d" p)
      (fun () ->
        for _ = 1 to msgs do
          ignore (Sim.Mailbox.recv mb)
        done)
  done;
  timed_run ~name:"mailbox-pingpong" sim
