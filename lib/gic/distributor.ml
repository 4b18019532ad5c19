type irq_state = Inactive | Pending | Active | Active_pending

(* SGIs and PPIs are banked: each CPU has its own copy of IRQs 0-31.
   SPIs are shared with a single target CPU. We key per-CPU state on
   (irq, cpu) for banked interrupts and (irq, target) for SPIs. *)
type per_irq = {
  mutable enabled : bool;
  mutable priority : int;
  mutable target : int; (* SPIs only *)
}

type t = {
  num_cpus : int;
  config : (Irq.t, per_irq) Hashtbl.t;
  state : (Irq.t * int, irq_state) Hashtbl.t;
}

let create ~num_cpus =
  if num_cpus < 1 || num_cpus > 8 then
    invalid_arg "Distributor.create: num_cpus must be in 1-8";
  { num_cpus; config = Hashtbl.create 64; state = Hashtbl.create 64 }

let num_cpus t = t.num_cpus

let config t irq =
  if not (Irq.is_valid irq) then invalid_arg "Distributor: invalid IRQ";
  match Hashtbl.find_opt t.config irq with
  | Some c -> c
  | None ->
      let c = { enabled = false; priority = 128; target = 0 } in
      Hashtbl.replace t.config irq c;
      c

let check_cpu t cpu =
  if cpu < 0 || cpu >= t.num_cpus then
    invalid_arg "Distributor: CPU index out of range"

let enable t irq = (config t irq).enabled <- true
let disable t irq = (config t irq).enabled <- false

let set_priority t irq p =
  if p < 0 || p > 255 then invalid_arg "Distributor.set_priority: 0-255";
  (config t irq).priority <- p

let set_target t irq ~cpu =
  check_cpu t cpu;
  match Irq.kind irq with
  | Irq.Spi -> (config t irq).target <- cpu
  | Irq.Sgi | Irq.Ppi ->
      invalid_arg "Distributor.set_target: SGIs and PPIs are banked per CPU"

let state t irq ~cpu =
  check_cpu t cpu;
  Option.value ~default:Inactive (Hashtbl.find_opt t.state (irq, cpu))

let set_state t irq ~cpu st =
  if st = Inactive then Hashtbl.remove t.state (irq, cpu)
  else Hashtbl.replace t.state (irq, cpu) st

let make_pending t irq ~cpu =
  match state t irq ~cpu with
  | Inactive -> set_state t irq ~cpu Pending
  | Active -> set_state t irq ~cpu Active_pending
  | Pending | Active_pending -> ()

let raise_spi t irq =
  (match Irq.kind irq with
  | Irq.Spi -> ()
  | Irq.Sgi | Irq.Ppi -> invalid_arg "Distributor.raise_spi: not an SPI");
  make_pending t irq ~cpu:(config t irq).target

let raise_ppi t irq ~cpu =
  (match Irq.kind irq with
  | Irq.Ppi -> ()
  | Irq.Sgi | Irq.Spi -> invalid_arg "Distributor.raise_ppi: not a PPI");
  check_cpu t cpu;
  make_pending t irq ~cpu

let send_sgi t irq ~from ~targets =
  (match Irq.kind irq with
  | Irq.Sgi -> ()
  | Irq.Ppi | Irq.Spi -> invalid_arg "Distributor.send_sgi: not an SGI");
  check_cpu t from;
  List.iter (fun cpu -> check_cpu t cpu; make_pending t irq ~cpu) targets

let highest_pending t ~cpu =
  check_cpu t cpu;
  (* lint: sorted — selection by (priority, lowest irq) is a total order *)
  Hashtbl.fold
    (fun (irq, c) st best ->
      let pending = st = Pending || st = Active_pending in
      if c <> cpu || (not pending) || not (config t irq).enabled then best
      else begin
        let prio = (config t irq).priority in
        match best with
        | Some (best_irq, best_prio)
          when best_prio < prio || (best_prio = prio && best_irq < irq) ->
            best
        | _ -> Some (irq, prio)
      end)
    t.state None
  |> Option.map fst

let acknowledge t ~cpu =
  match highest_pending t ~cpu with
  | None -> None
  | Some irq ->
      (match state t irq ~cpu with
      | Pending -> set_state t irq ~cpu Active
      | Active_pending -> set_state t irq ~cpu Active_pending
      | Inactive | Active -> assert false);
      Some irq

let end_of_interrupt t irq ~cpu =
  match state t irq ~cpu with
  | Active -> set_state t irq ~cpu Inactive
  | Active_pending -> set_state t irq ~cpu Pending
  | Inactive | Pending ->
      invalid_arg "Distributor.end_of_interrupt: interrupt not active"

let pending_count t ~cpu =
  check_cpu t cpu;
  (* lint: sorted — pure count, commutative *)
  Hashtbl.fold
    (fun (_, c) st acc ->
      if c = cpu && (st = Pending || st = Active_pending) then acc + 1 else acc)
    t.state 0
