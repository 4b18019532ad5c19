type irq_state = Inactive | Pending | Active | Active_pending

(* SGIs are banked: each CPU has its own copy, so state is keyed on
   (irq, cpu). *)
type t = {
  num_cpus : int;
  enabled : (Irq.t, unit) Hashtbl.t;
  state : (Irq.t * int, irq_state) Hashtbl.t;
}

let create ~num_cpus =
  if num_cpus < 1 || num_cpus > 8 then
    invalid_arg "Distributor.create: num_cpus must be in 1-8";
  { num_cpus; enabled = Hashtbl.create 64; state = Hashtbl.create 64 }

let check_cpu t cpu =
  if cpu < 0 || cpu >= t.num_cpus then
    invalid_arg "Distributor: CPU index out of range"

let enable t irq =
  if not (Irq.is_valid irq) then invalid_arg "Distributor: invalid IRQ";
  Hashtbl.replace t.enabled irq ()

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

let send_sgi t irq ~from ~targets =
  (match Irq.kind irq with
  | Irq.Sgi -> ()
  | Irq.Ppi | Irq.Spi -> invalid_arg "Distributor.send_sgi: not an SGI");
  check_cpu t from;
  List.iter (fun cpu -> check_cpu t cpu; make_pending t irq ~cpu) targets

(* Every IRQ has the same priority, so the lowest pending one wins. *)
let highest_pending t ~cpu =
  check_cpu t cpu;
  (* lint: sorted — selection of the lowest irq is a total order *)
  Hashtbl.fold
    (fun (irq, c) st best ->
      let pending = st = Pending || st = Active_pending in
      if c <> cpu || (not pending) || not (Hashtbl.mem t.enabled irq) then best
      else
        match best with
        | Some best_irq when best_irq < irq -> best
        | _ -> Some irq)
    t.state None

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
