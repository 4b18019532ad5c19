module Marker = Armvirt_obs.Marker

type t = {
  machine : Machine.t;
  hyp : string;
  exits : Machine.marker option array array; (* reason, then pcpu *)
  entries : Machine.marker option array; (* pcpu, no domid *)
  domains : Machine.marker option array array; (* pcpu, then domid *)
}

let create machine ~hyp =
  let n = Machine.num_cpus machine in
  {
    machine;
    hyp;
    exits =
      Array.init (List.length Marker.all_reasons) (fun _ -> Array.make n None);
    entries = Array.make n None;
    domains = Array.make n [||];
  }

let reason_index = function
  | Marker.Wfx -> 0
  | Hvc -> 1
  | Smc -> 2
  | Sysreg -> 3
  | Iabt -> 4
  | Dabt -> 5
  | Irq -> 6

let store cells i m =
  cells.(i) <- Some m;
  m

(* A hit builds no label; a miss builds and interns it once. *)
let exit t reason ~pcpu =
  let cells = t.exits.(reason_index reason) in
  match cells.(pcpu) with
  | Some m -> m
  | None ->
      store cells pcpu
        (Machine.marker t.machine (Marker.exit ~hyp:t.hyp ~reason ~pcpu))

let domain_cells t ~pcpu domid =
  if domid < 0 then invalid_arg "Transitions.entry: negative domid";
  let cells = t.domains.(pcpu) in
  if domid < Array.length cells then cells
  else begin
    let grown =
      Array.make (Stdlib.max (domid + 1) (2 * Array.length cells)) None
    in
    Array.blit cells 0 grown 0 (Array.length cells);
    t.domains.(pcpu) <- grown;
    grown
  end

let entry ?domid t ~pcpu =
  match domid with
  | None -> (
      match t.entries.(pcpu) with
      | Some m -> m
      | None ->
          store t.entries pcpu
            (Machine.marker t.machine (Marker.entry ~hyp:t.hyp ~pcpu ())))
  | Some domid -> (
      let cells = domain_cells t ~pcpu domid in
      match cells.(domid) with
      | Some m -> m
      | None ->
          store cells domid
            (Machine.marker t.machine (Marker.entry ~hyp:t.hyp ~pcpu ~domid ())))
