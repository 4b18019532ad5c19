module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles

type t = {
  sim : Sim.t;
  propagation : Cycles.t;
  cycles_per_byte : float;
  mutable wire_free_at : Cycles.t; (* serialization point: FIFO ordering *)
  mutable in_flight : int;
  mutable delivered : int;
  mutable busy : int; (* cumulative serialization cycles committed *)
}

let create sim ~propagation ~cycles_per_byte =
  if cycles_per_byte < 0.0 then invalid_arg "Link.create: negative rate";
  {
    sim;
    propagation;
    cycles_per_byte;
    wire_free_at = Cycles.zero;
    in_flight = 0;
    delivered = 0;
    busy = 0;
  }

(* The one dimension change on the wire path: line rate in Gbps to CPU
   cycles per byte. gbps/8 bytes travel per ns while freq_ghz cycles
   elapse, so one byte costs freq_ghz * 8 / gbps cycles. Named so the
   units linter (U2) can recognise literal rates entering it. *)
let cycles_per_byte_of_gbps ~freq_ghz gbps =
  if gbps <= 0.0 then invalid_arg "Link.cycles_per_byte_of_gbps: rate <= 0";
  freq_ghz *. 8.0 /. gbps

let ten_gbe sim ~freq_ghz =
  let cycles_per_byte = cycles_per_byte_of_gbps ~freq_ghz 10.0 in
  let propagation = Cycles.of_us ~hz:(freq_ghz *. 1e9) 2.0 in
  create sim ~propagation ~cycles_per_byte

let send t packet ~deliver =
  let now = Sim.now t.sim in
  let serialization =
    Cycles.of_int
      (int_of_float
         (Float.round (t.cycles_per_byte *. float_of_int (Packet.wire_bytes packet))))
  in
  let start = Cycles.max now t.wire_free_at in
  let done_serializing = Cycles.add start serialization in
  t.wire_free_at <- done_serializing;
  t.busy <- t.busy + Cycles.to_int serialization;
  let arrival = Cycles.add done_serializing t.propagation in
  t.in_flight <- t.in_flight + 1;
  Sim.at t.sim arrival (fun () ->
      t.in_flight <- t.in_flight - 1;
      t.delivered <- t.delivered + 1;
      deliver packet)

(* Byte-accurate serialization for bulk payloads: one rounding over the
   whole payload, not one per packet. At 10 GbE a 4 KiB page is ~7,864
   cycles of wire time; per-packet rounding of a 1,000-page batch would
   drift by up to 500 cycles — enough to misorder migration rounds. *)
let serialization_cycles t ~bytes =
  if bytes < 0 then invalid_arg "Link.serialization_cycles: negative size";
  Cycles.of_int
    (int_of_float (Float.round (t.cycles_per_byte *. float_of_int bytes)))

let transfer_time t ~bytes =
  Cycles.add (serialization_cycles t ~bytes) t.propagation

let send_bulk t ~bytes =
  let now = Sim.current_time () in
  let start = Cycles.max now t.wire_free_at in
  let serialization = serialization_cycles t ~bytes in
  let done_serializing = Cycles.add start serialization in
  t.wire_free_at <- done_serializing;
  t.busy <- t.busy + Cycles.to_int serialization;
  let arrival = Cycles.add done_serializing t.propagation in
  t.in_flight <- t.in_flight + 1;
  Sim.delay (Cycles.sub arrival now);
  t.in_flight <- t.in_flight - 1;
  t.delivered <- t.delivered + 1;
  Cycles.sub arrival now

let delivered t = t.delivered
let in_flight t = t.in_flight
let busy_cycles t = t.busy

let utilization t =
  (* Elapsed includes serialization already committed to the future
     (wire_free_at past now), so a saturated wire reads 1.0 rather
     than transiently above it. *)
  let elapsed = Cycles.to_int (Cycles.max (Sim.now t.sim) t.wire_free_at) in
  if elapsed = 0 then 0.0 else float_of_int t.busy /. float_of_int elapsed
