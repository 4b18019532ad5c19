module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Counter = Armvirt_stats.Counter
module Span = Armvirt_obs.Span
module Marker = Armvirt_obs.Marker
module Accounting = Armvirt_obs.Accounting

type sink = {
  spend :
    id:Counter.id -> label:string -> cat:Span.category -> cycles:int ->
    now:Cycles.t -> unit;
  count :
    id:Counter.id -> marker:Marker.t -> label:string -> cat:Span.category ->
    now:Cycles.t -> unit;
}

type t = {
  sim : Sim.t;
  cost : Cost_model.t;
  counters : Counter.set;
  num_cpus : int;
  mutable sink : sink option;
  mutable kinds : Bytes.t;
  mutable ops : op list;
  mutable marked : marker list;
}

(* One interned op of one machine, with its declared category and
   lane. *)
and op = {
  machine : t;
  counter : Counter.id;
  label : string;
  cat : Span.category;
  lane : Accounting.lane;
}

(* One interned marker, the same with its typed marker. *)
and marker = {
  m_machine : t;
  m_counter : Counter.id;
  m_label : string;
  marker : Marker.t;
}

(* [kinds] says, by counter id, what each label was interned as: a label
   is an op or a marker on one machine, never both. [ops] and [marked]
   hold the first op and marker interned on each id, newest first. *)
let free = '\000'
and is_op = 'o'
and is_marker = 'm'

(* Run on every [create] on this domain, so a tracing session can attach
   to machines it never sees constructed (experiments build their
   machines internally). Domain-local: a capture on one domain never
   instruments a machine another domain builds. *)
let create_hook : (t -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_create_hook h = Domain.DLS.set create_hook h

let create sim ~cost ~num_cpus =
  if num_cpus < 1 then invalid_arg "Machine.create: num_cpus < 1";
  let t =
    {
      sim;
      cost;
      counters = Counter.create_set ();
      num_cpus;
      sink = None;
      kinds = Bytes.empty;
      ops = [];
      marked = [];
    }
  in
  (match Domain.DLS.get create_hook with None -> () | Some h -> h t);
  t

let sim t = t.sim
let cost t = t.cost
let counters t = t.counters
let num_cpus t = t.num_cpus

let attach t sink = t.sink <- sink

let kind t (counter : Counter.id) =
  let i = (counter :> int) in
  if i < Bytes.length t.kinds then Bytes.get t.kinds i else free

let set_kind t (counter : Counter.id) k =
  let i = (counter :> int) in
  if i >= Bytes.length t.kinds then begin
    let grown = Bytes.make (Stdlib.max 256 (2 * (i + 1))) free in
    Bytes.blit t.kinds 0 grown 0 (Bytes.length t.kinds);
    t.kinds <- grown
  end;
  Bytes.set t.kinds i k

let op t ?(lane = Accounting.Hypervisor) cat label =
  let counter = Counter.intern t.counters label in
  let k = kind t counter in
  if k = is_marker then
    invalid_arg (Printf.sprintf "Machine.op: %S is already a marker" label);
  let op = { machine = t; counter; label; cat; lane } in
  if k = free then begin
    set_kind t counter is_op;
    t.ops <- op :: t.ops
  end;
  op

let marker t m =
  let label = Marker.label m in
  let counter = Counter.intern t.counters label in
  let k = kind t counter in
  if k = is_op then
    invalid_arg (Printf.sprintf "Machine.marker: %S is already an op" label);
  let mk =
    { m_machine = t; m_counter = counter; m_label = label; marker = m }
  in
  if k = free then begin
    set_kind t counter is_marker;
    t.marked <- mk :: t.marked
  end;
  mk

let spend op cycles =
  if cycles < 0 then invalid_arg "Machine.spend: negative cycles";
  let t = op.machine in
  Counter.add_id t.counters op.counter cycles;
  Sim.delay (Cycles.of_int cycles);
  match t.sink with
  | Some s ->
      s.spend ~id:op.counter ~label:op.label ~cat:op.cat ~cycles
        ~now:(Sim.current_time ())
  | None -> ()

let count mk =
  let t = mk.m_machine in
  Counter.incr_id t.counters mk.m_counter;
  match t.sink with
  | Some s ->
      s.count ~id:mk.m_counter ~marker:mk.marker ~label:mk.m_label
        ~cat:(Marker.category mk.marker) ~now:(Sim.now t.sim)
  | None -> ()

let markers t =
  List.fold_left
    (fun acc mk ->
      match Counter.value t.counters mk.m_counter with
      | Some n -> (mk.marker, n) :: acc
      | None -> acc)
    [] t.marked

let op_cycles t =
  List.filter_map
    (fun op ->
      Option.map
        (fun cycles ->
          { Accounting.label = op.label; cat = op.cat; lane = op.lane; cycles })
        (Counter.value t.counters op.counter))
    t.ops
  |> List.sort (fun (a : Accounting.spent) b -> String.compare a.label b.label)

let freq_ghz t = Cost_model.freq_ghz t.cost
let elapsed_us t c = Cycles.to_us ~hz:(freq_ghz t *. 1e9) c
