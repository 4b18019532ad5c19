type lr_state = Lr_pending | Lr_active

type lr = { irq : Irq.t; mutable state : lr_state }

exception Overflow

type t = {
  num_lrs : int;
  mutable lrs : lr list; (* occupied list registers *)
  queue : Irq.t Queue.t; (* software overflow list *)
}

let create ?(num_lrs = 4) () =
  if num_lrs < 1 then invalid_arg "Vgic.create: num_lrs < 1";
  { num_lrs; lrs = []; queue = Queue.create () }

let resident t = List.length t.lrs
let free_lrs t = t.num_lrs - resident t

let find t irq = List.find_opt (fun lr -> lr.irq = irq) t.lrs

let inject t irq =
  if not (Irq.is_valid irq) then invalid_arg "Vgic.inject: invalid IRQ";
  match find t irq with
  | Some _ -> () (* hardware merges re-injection of a resident interrupt *)
  | None ->
      if free_lrs t = 0 then raise Overflow;
      t.lrs <- t.lrs @ [ { irq; state = Lr_pending } ]

let inject_or_queue t irq =
  match inject t irq with
  | () -> ()
  | exception Overflow ->
      if not (Queue.fold (fun seen i -> seen || i = irq) false t.queue) then
        Queue.push irq t.queue

let overflow_queue t = List.of_seq (Queue.to_seq t.queue)
let maintenance_needed t = not (Queue.is_empty t.queue)

let drain_overflow t =
  let rec refill () =
    if free_lrs t > 0 && not (Queue.is_empty t.queue) then begin
      inject t (Queue.pop t.queue);
      refill ()
    end
  in
  refill ()

let acknowledge t =
  let pending_lr =
    List.find_opt (fun lr -> lr.state = Lr_pending) t.lrs
  in
  match pending_lr with
  | None -> None
  | Some lr ->
      lr.state <- Lr_active;
      Some lr.irq

let complete t irq =
  match find t irq with
  | Some lr when lr.state = Lr_active ->
      t.lrs <- List.filter (fun l -> l.irq <> irq) t.lrs
  | Some _ | None ->
      invalid_arg "Vgic.complete: interrupt not active"

let pending t =
  List.filter_map
    (fun lr -> if lr.state = Lr_pending then Some lr.irq else None)
    t.lrs

let active t =
  List.filter_map
    (fun lr -> if lr.state = Lr_active then Some lr.irq else None)
    t.lrs
