module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine

type kind = Vhost | Netback

type t = {
  machine : Machine.t;
  kind : kind;
  per_item : int;
  wake_cost : int;
  item_op : Machine.op;
  wake_op : Machine.op;
  batch_budget : int;
  on_item : int -> unit;
  queue : int Queue.t;
  bell : Sim.Signal.t;
  mutable parked : bool;
  mutable started : bool;
  mutable stopping : bool;
  mutable processed : int;
  mutable wakeups : int;
  mutable max_depth : int;
}

let per_item_cost (p : Io_profile.t) kind =
  match kind with
  | Vhost -> p.Io_profile.backend_cpu_per_packet
  | Netback ->
      (* Every item crosses the grant mechanism and gets copied. *)
      p.Io_profile.backend_cpu_per_packet + p.Io_profile.rx_grant_per_packet
      + int_of_float (p.Io_profile.rx_copy_per_byte *. 1500.0)

let label kind = match kind with Vhost -> "vhost" | Netback -> "netback"

let create machine ~profile ~kind ?(batch_budget = 64) on_item =
  if batch_budget < 1 then
    invalid_arg "Backend_thread.create: batch budget < 1";
  {
    machine;
    kind;
    per_item = per_item_cost profile kind;
    (* Scheduler wake of a kernel thread. *)
    wake_cost = 1_100;
    item_op = Machine.op machine Io (label kind ^ ".item");
    wake_op = Machine.op machine Io (label kind ^ ".wake");
    batch_budget;
    on_item;
    queue = Queue.create ();
    bell = Sim.Signal.create (Machine.sim machine);
    parked = true;
    started = false;
    stopping = false;
    processed = 0;
    wakeups = 0;
    max_depth = 0;
  }

let worker t () =
  let continue_running = ref true in
  while !continue_running do
    if Queue.is_empty t.queue then
      if t.stopping then continue_running := false
      else begin
        (* Budget exhausted or queue dry: re-arm notifications, park. *)
        t.parked <- true;
        Sim.Signal.wait t.bell;
        Machine.spend t.wake_op t.wake_cost
      end
    else begin
      t.parked <- false;
      let burst = ref 0 in
      while (not (Queue.is_empty t.queue)) && !burst < t.batch_budget do
        let item = Queue.pop t.queue in
        incr burst;
        t.processed <- t.processed + 1;
        Machine.spend t.item_op t.per_item;
        t.on_item item
      done;
      (* Yield between bursts so producers interleave, like
         cond_resched in a kthread loop. *)
      Sim.yield ()
    end
  done

let start t =
  if t.started then invalid_arg "Backend_thread.start: already started";
  t.started <- true;
  Sim.spawn (Machine.sim t.machine) ~name:(label t.kind ^ "-worker") (worker t)

let ring_bell t =
  if t.parked then begin
    t.parked <- false;
    t.wakeups <- t.wakeups + 1;
    Sim.Signal.notify t.bell
  end

let submit t item =
  Queue.push item t.queue;
  t.max_depth <- Stdlib.max t.max_depth (Queue.length t.queue);
  ring_bell t

let shutdown t =
  t.stopping <- true;
  (* A parked worker needs one last bell to observe the flag. *)
  if t.parked then begin
    t.parked <- false;
    Sim.Signal.notify t.bell
  end

let is_parked t = t.parked
let processed t = t.processed
let wakeups t = t.wakeups
let max_queue_depth t = t.max_depth
