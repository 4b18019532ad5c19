module Cycles = Armvirt_engine.Cycles
module Sim = Armvirt_engine.Sim

type t = { barrier_cost : Cycles.t }

let create ~barrier_cost = { barrier_cost }

let read t =
  Sim.delay t.barrier_cost;
  Sim.current_time ()

let measure t f =
  let start = read t in
  f ();
  let stop = read t in
  (* The stop timestamp includes one barrier executed after [f]
     completed; remove it so the result covers [f] alone. *)
  Cycles.sub (Cycles.sub stop start) t.barrier_cost
