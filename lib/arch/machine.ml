module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Counter = Armvirt_stats.Counter
module Span = Armvirt_obs.Span

type pcpu = { id : int; exclusive : Sim.Resource.t }

type sink = {
  spend :
    label:string -> cat:Span.category -> cycles:int -> now:Cycles.t -> unit;
  count : label:string -> cat:Span.category -> now:Cycles.t -> unit;
}

type t = {
  sim : Sim.t;
  cost : Cost_model.t;
  counters : Counter.set;
  cpus : pcpu array;
  mutable sink : sink option;
}

(* One interned label of one machine. Ops and markers share the
   representation; the interface keeps the two types apart. The category
   is classified on the first observed use, not at intern time: most
   machines are never traced. *)
type slot = {
  machine : t;
  counter : Counter.id;
  label : string;
  mutable cat : Span.category option;
}

type op = slot
type marker = slot

(* Run on every [create] on this domain, so a tracing session can attach
   to machines it never sees constructed (experiments build their
   machines internally). Domain-local: a capture on one domain never
   instruments a machine another domain builds. *)
let create_hook : (t -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_create_hook h = Domain.DLS.set create_hook h

let create sim ~cost ~num_cpus =
  if num_cpus < 1 then invalid_arg "Machine.create: num_cpus < 1";
  let make_cpu id =
    {
      id;
      exclusive =
        Sim.Resource.create ~name:(Printf.sprintf "pcpu%d" id) sim ~capacity:1;
    }
  in
  let t =
    {
      sim;
      cost;
      counters = Counter.create_set ();
      cpus = Array.init num_cpus make_cpu;
      sink = None;
    }
  in
  (match Domain.DLS.get create_hook with None -> () | Some h -> h t);
  t

let sim t = t.sim
let cost t = t.cost
let counters t = t.counters
let num_cpus t = Array.length t.cpus

let pcpu t i =
  if i < 0 || i >= Array.length t.cpus then
    invalid_arg (Printf.sprintf "Machine.pcpu: index %d out of range" i);
  t.cpus.(i)

let pcpu_id cpu = cpu.id
let exclusive cpu = cpu.exclusive

let attach t sink = t.sink <- sink

let intern t label =
  { machine = t; counter = Counter.intern t.counters label; label; cat = None }

let op = intern
let marker = intern

let category s =
  match s.cat with
  | Some c -> c
  | None ->
      let c = Span.of_label s.label in
      s.cat <- Some c;
      c

let spend op cycles =
  if cycles < 0 then invalid_arg "Machine.spend: negative cycles";
  let t = op.machine in
  Counter.add_id t.counters op.counter cycles;
  Counter.add_id t.counters Counter.cycles cycles;
  Sim.delay (Cycles.of_int cycles);
  match t.sink with
  | Some s ->
      s.spend ~label:op.label ~cat:(category op) ~cycles
        ~now:(Sim.current_time ())
  | None -> ()

let count marker =
  let t = marker.machine in
  Counter.incr_id t.counters marker.counter;
  match t.sink with
  | Some s ->
      s.count ~label:marker.label ~cat:(category marker) ~now:(Sim.now t.sim)
  | None -> ()

let freq_ghz t = Cost_model.freq_ghz t.cost
let elapsed_us t c = Cycles.to_us ~hz:(freq_ghz t *. 1e9) c
