module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles

type t = {
  on_expiry : unit -> unit;
  mutable generation : int; (* invalidates superseded arm requests *)
  mutable armed : bool;
  mutable expirations : int;
}

let create ~on_expiry =
  {
    on_expiry;
    generation = 0;
    armed = false;
    expirations = 0;
  }

let arm_timer t ~deadline =
  t.generation <- t.generation + 1;
  t.armed <- true;
  let generation = t.generation in
  let fire () =
    let now = Sim.current_time () in
    let wait =
      if Cycles.compare deadline now > 0 then Cycles.sub deadline now
      else Cycles.zero
    in
    Sim.delay wait;
    if t.generation = generation && t.armed then begin
      t.armed <- false;
      t.expirations <- t.expirations + 1;
      t.on_expiry ()
    end
  in
  Sim.spawn_here ~name:"arch-timer" fire

let is_armed t = t.armed

let expirations t = t.expirations
