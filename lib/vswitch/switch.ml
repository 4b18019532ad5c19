module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Packet = Armvirt_net.Packet
module Link = Armvirt_net.Link
module Marker = Armvirt_obs.Marker

type dest = Local of int | Via_uplink of int

type port = {
  port_id : int;
  mac : int;
  local : dest;
      (* [Local port_id], built once: the route to this port, and the
         ingress its frames learn *)
  mutable handler : src:int -> dst:int -> Packet.t -> unit;
  mutable queued : int; (* frames committed to egress, not yet delivered *)
  mutable rx_frames : int;
  mutable tx_frames : int;
  mutable dropped : int;
  mutable egress_free_at : Cycles.t; (* per-port backend serialization *)
  rx_mark : Machine.marker;
  tx_mark : Machine.marker;
  drop_mark : Machine.marker;
}

type uplink = {
  via : dest; (* [Via_uplink] of its id, built once, as [local] is *)
  up_link : Link.t;
  up_tx_mark : Machine.marker;
  up_rx_mark : Machine.marker;
  (* Set by [connect]: runs the peer switch's ingress after the wire
     delivers a frame. *)
  mutable up_deliver : src:int -> dst:int -> Packet.t -> unit;
}

module Macs = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash mac = mac land max_int
end)

type t = {
  name : string;
  machine : Machine.t;
  ingress_op : Machine.op;
  flood_mark : Machine.marker;
  profile : Port_profile.t;
  queue_capacity : int;
  learning : bool;
  mac_table : dest Macs.t; (* holds only ports' [local] and uplinks' [via] *)
  mutable ports : port array; (* by id: attach order *)
  mutable uplinks : uplink array; (* by id: connect order *)
  mutable flooded : int;
}

let create ?(queue_capacity = 64) ?(learning = true) ~name machine profile =
  if queue_capacity < 1 then invalid_arg "Switch.create: queue_capacity < 1";
  {
    name;
    machine;
    ingress_op = Machine.op machine Other "vswitch.ingress";
    flood_mark = Machine.marker machine (Marker.flood ~switch:name);
    profile;
    queue_capacity;
    learning;
    mac_table = Macs.create 32;
    ports = [||];
    uplinks = [||];
    flooded = 0;
  }

let find_port t id =
  if id >= 0 && id < Array.length t.ports then t.ports.(id)
  else invalid_arg (Printf.sprintf "Switch %s: no port %d" t.name id)

let attach t ~mac ~deliver =
  if Array.exists (fun p -> p.mac = mac) t.ports then
    invalid_arg (Printf.sprintf "Switch %s: MAC %d already attached" t.name mac);
  let port_id = Array.length t.ports in
  let p =
    {
      port_id;
      mac;
      local = Local port_id;
      handler = deliver;
      queued = 0;
      rx_frames = 0;
      tx_frames = 0;
      dropped = 0;
      egress_free_at = Cycles.zero;
      rx_mark =
        Machine.marker t.machine (Marker.port ~switch:t.name ~port:port_id Rx);
      tx_mark =
        Machine.marker t.machine (Marker.port ~switch:t.name ~port:port_id Tx);
      drop_mark =
        Machine.marker t.machine
          (Marker.port ~switch:t.name ~port:port_id Drop);
    }
  in
  t.ports <- Array.append t.ports [| p |];
  port_id

let set_handler t ~port deliver = (find_port t port).handler <- deliver

(* Push a frame into a local port's egress pipeline: a bounded queue in
   front of the per-port backend (egress cost serializes per port, like
   a wire), then the virtual interrupt into the guest. [lead] is extra
   latency before the backend can start (the notify kick when the frame
   came from a local guest; zero off the uplink). *)
let egress t p ~lead ~src ~dst pkt =
  if p.queued >= t.queue_capacity then begin
    p.dropped <- p.dropped + 1;
    Machine.count p.drop_mark
  end
  else begin
    p.queued <- p.queued + 1;
    let sim = Machine.sim t.machine in
    let now = Sim.now sim in
    let cost =
      Port_profile.egress_cost t.profile ~bytes:(Packet.wire_bytes pkt)
    in
    let start =
      Cycles.max (Cycles.add now (Cycles.of_int lead)) p.egress_free_at
    in
    let finished = Cycles.add start (Cycles.of_int cost) in
    p.egress_free_at <- finished;
    let arrival =
      Cycles.add finished (Cycles.of_int t.profile.Port_profile.irq_delivery_latency)
    in
    Sim.at sim arrival (fun () ->
        p.queued <- p.queued - 1;
        p.tx_frames <- p.tx_frames + 1;
        Machine.count p.tx_mark;
        p.handler ~src ~dst pkt)
  end

(* Trunk ports tag the frame: +4 bytes of 802.1Q on the wire. The tag
   is on the packet only while [Link.send] prices its serialization: a
   flood hands one packet to several uplinks, and a tag left on it would
   reach the next uplink's wire and the far switch's ports. *)
let uplink_send u ~src ~dst pkt =
  Machine.count u.up_tx_mark;
  let framing = Packet.framing_bytes pkt in
  Packet.set_framing pkt (framing + Packet.vlan_tag_bytes);
  Link.send u.up_link pkt ~deliver:(fun pkt -> u.up_deliver ~src ~dst pkt);
  Packet.set_framing pkt framing

(* A frame's ingress is the [dest] that reaches back to where it came
   from: a port's [local] or an uplink's [via]. *)
let lead t = function
  | Local _ -> t.profile.Port_profile.notify_latency
  | Via_uplink _ -> 0

(* The table is written only when [mac]'s route changes. *)
let learn t mac ingress =
  match Macs.find t.mac_table mac with
  | route when route == ingress -> ()
  | _ -> Macs.replace t.mac_table mac ingress
  | exception Not_found -> Macs.replace t.mac_table mac ingress

(* Static forwarding: local MAC match, else the last uplink connected. *)
let rec static_route t dst i =
  if i < Array.length t.ports then
    if t.ports.(i).mac = dst then t.ports.(i).local
    else static_route t dst (i + 1)
  else
    let n = Array.length t.uplinks in
    if n = 0 then raise Not_found else t.uplinks.(n - 1).via

let rec forward t ~ingress ~src ~dst pkt =
  if t.learning then learn t src ingress;
  match
    if t.learning then Macs.find t.mac_table dst else static_route t dst 0
  with
  | Local pid -> egress t t.ports.(pid) ~lead:(lead t ingress) ~src ~dst pkt
  | Via_uplink uid when ingress != t.uplinks.(uid).via ->
      uplink_send t.uplinks.(uid) ~src ~dst pkt
  | Via_uplink _ ->
      (* Split horizon: never bounce a frame back out the uplink it
         arrived on. *)
      ()
  | exception Not_found -> flood t ~ingress ~src ~dst pkt

and flood t ~ingress ~src ~dst pkt =
  t.flooded <- t.flooded + 1;
  Machine.count t.flood_mark;
  let lead = lead t ingress in
  Array.iter
    (fun p -> if p.local != ingress then egress t p ~lead ~src ~dst pkt)
    t.ports;
  Array.iter
    (fun u -> if u.via != ingress then uplink_send u ~src ~dst pkt)
    t.uplinks

let transmit t ~port ~dst pkt =
  let p = find_port t port in
  p.rx_frames <- p.rx_frames + 1;
  Machine.count p.rx_mark;
  (* The sending guest's kick plus the backend's TX path, charged in
     the caller's (guest) process like the netperf model does. *)
  Machine.spend t.ingress_op
    (Port_profile.ingress_cost t.profile ~bytes:(Packet.wire_bytes pkt));
  forward t ~ingress:p.local ~src:p.mac ~dst pkt

let add_uplink t link =
  let up_id = Array.length t.uplinks in
  let u =
    {
      via = Via_uplink up_id;
      up_link = link;
      up_tx_mark =
        Machine.marker t.machine (Marker.uplink ~switch:t.name ~uplink:up_id Tx);
      up_rx_mark =
        Machine.marker t.machine (Marker.uplink ~switch:t.name ~uplink:up_id Rx);
      up_deliver = (fun ~src:_ ~dst:_ _ -> ());
    }
  in
  t.uplinks <- Array.append t.uplinks [| u |];
  u

let connect a b ~a_to_b ~b_to_a =
  let ua = add_uplink a a_to_b in
  let ub = add_uplink b b_to_a in
  ua.up_deliver <-
    (fun ~src ~dst pkt ->
      Machine.count ub.up_rx_mark;
      forward b ~ingress:ub.via ~src ~dst pkt);
  ub.up_deliver <-
    (fun ~src ~dst pkt ->
      Machine.count ua.up_rx_mark;
      forward a ~ingress:ua.via ~src ~dst pkt)

type port_stats = {
  stat_port : int;
  stat_mac : int;
  rx : int;
  tx : int;
  drops : int;
  queue_depth : int;
}

let port_stats t =
  Array.to_list
    (Array.map
       (fun p ->
         {
           stat_port = p.port_id;
           stat_mac = p.mac;
           rx = p.rx_frames;
           tx = p.tx_frames;
           drops = p.dropped;
           queue_depth = p.queued;
         })
       t.ports)

let dropped t = Array.fold_left (fun s p -> s + p.dropped) 0 t.ports
let flooded t = t.flooded

let mac_table t =
  Macs.fold (fun mac dest l -> (mac, dest) :: l) t.mac_table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
(* lint: sorted — listing is ordered by MAC before it escapes *)

let uplink_links t = Array.to_list (Array.map (fun u -> u.up_link) t.uplinks)
