module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles

let default_framing = 66
let vlan_tag_bytes = 4

(* Stamps live in two small parallel arrays in first-stamp order. A
   lookup scans with [String.equal], which returns at once on the
   pointer-equal literal the call sites pass; a packet carries a handful
   of stamps, so the scan is shorter than hashing the label. *)
type t = {
  id : int;
  payload : int;
  mutable framing : int;
  mutable labels : string array;
  mutable times : int array; (* cycles *)
  mutable stamped : int;
}

let create ?(framing = default_framing) ?(payload = 1) ~id () =
  if payload < 0 then invalid_arg "Packet.create: negative payload";
  if framing < 0 then invalid_arg "Packet.create: negative framing";
  {
    id;
    payload;
    framing;
    labels = Array.make 8 "";
    times = Array.make 8 0;
    stamped = 0;
  }

let id t = t.id
let payload_bytes t = t.payload
let framing_bytes t = t.framing

let set_framing t framing =
  if framing < 0 then invalid_arg "Packet.set_framing: negative framing";
  t.framing <- framing

let wire_bytes t = t.payload + t.framing

let rec find t label i =
  if i = t.stamped then -1
  else if String.equal t.labels.(i) label then i
  else find t label (i + 1)

let stamp_at t label time =
  match find t label 0 with
  | -1 ->
      let n = t.stamped in
      if n = Array.length t.labels then begin
        let grow a fill =
          let b = Array.make (2 * n) fill in
          Array.blit a 0 b 0 n;
          b
        in
        t.labels <- grow t.labels "";
        t.times <- grow t.times 0
      end;
      t.labels.(n) <- label;
      t.times.(n) <- Cycles.to_int time;
      t.stamped <- n + 1
  | i -> t.times.(i) <- Cycles.to_int time

let stamp t label = stamp_at t label (Sim.current_time ())

let timestamp t label =
  match find t label 0 with
  | -1 -> None
  | i -> Some (Cycles.of_int t.times.(i))

let interval t a b =
  match (find t a 0, find t b 0) with
  | -1, _ | _, -1 -> None
  | i, j ->
      let d = t.times.(j) - t.times.(i) in
      if d >= 0 then Some (Cycles.of_int d) else None

let stamps t =
  List.init t.stamped (fun i -> (t.labels.(i), t.times.(i)))
  |> List.stable_sort (fun (_, a) (_, b) -> Int.compare a b)
  |> List.map (fun (label, time) -> (label, Cycles.of_int time))
