module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Packet = Armvirt_net.Packet
module Link = Armvirt_net.Link
module Marker = Armvirt_obs.Marker

type port = {
  port_id : int;
  mac : int;
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

type dest = Local of int | Via_uplink of int

type uplink = {
  up_id : int;
  up_link : Link.t;
  up_tx_mark : Machine.marker;
  up_rx_mark : Machine.marker;
  (* Set by [connect]: runs the peer switch's ingress after the wire
     delivers a frame. *)
  mutable up_deliver : src:int -> dst:int -> Packet.t -> unit;
}

type t = {
  name : string;
  machine : Machine.t;
  ingress_op : Machine.op;
  flood_mark : Machine.marker;
  profile : Port_profile.t;
  queue_capacity : int;
  learning : bool;
  mac_table : (int, dest) Hashtbl.t;
  mutable ports : port list; (* reverse attach order *)
  mutable uplinks : uplink list; (* reverse connect order *)
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
    mac_table = Hashtbl.create 32;
    ports = [];
    uplinks = [];
    flooded = 0;
  }

let find_port t id =
  match List.find_opt (fun p -> p.port_id = id) t.ports with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Switch %s: no port %d" t.name id)

let attach t ~mac ~deliver =
  if List.exists (fun p -> p.mac = mac) t.ports then
    invalid_arg (Printf.sprintf "Switch %s: MAC %d already attached" t.name mac);
  let port_id = List.length t.ports in
  let p =
    {
      port_id;
      mac;
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
  t.ports <- p :: t.ports;
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

type ingress_from = From_port of int | From_uplink of int

let rec forward t ~ingress ~src ~dst pkt =
  if t.learning then
    Hashtbl.replace t.mac_table src
      (match ingress with
      | From_port i -> Local i
      | From_uplink u -> Via_uplink u);
  let route =
    if t.learning then Hashtbl.find_opt t.mac_table dst
    else
      (* Static forwarding: local MAC match, else the uplink. *)
      match List.find_opt (fun p -> p.mac = dst) t.ports with
      | Some p -> Some (Local p.port_id)
      | None -> (
          match t.uplinks with
          | [] -> None
          | u :: _ -> Some (Via_uplink u.up_id))
  in
  match route with
  | Some (Local pid) -> (
      let p = find_port t pid in
      let lead =
        match ingress with
        | From_port _ -> t.profile.Port_profile.notify_latency
        | From_uplink _ -> 0
      in
      egress t p ~lead ~src ~dst pkt)
  | Some (Via_uplink uid)
    when (match ingress with From_uplink u -> u <> uid | From_port _ -> true)
    -> (
      match List.find_opt (fun u -> u.up_id = uid) t.uplinks with
      | Some u -> uplink_send u ~src ~dst pkt
      | None -> ())
  | Some (Via_uplink _) ->
      (* Split horizon: never bounce a frame back out the uplink it
         arrived on. *)
      ()
  | None -> flood t ~ingress ~src ~dst pkt

and flood t ~ingress ~src ~dst pkt =
  t.flooded <- t.flooded + 1;
  Machine.count t.flood_mark;
  let skip_port =
    match ingress with From_port i -> Some i | From_uplink _ -> None
  in
  let skip_uplink =
    match ingress with From_uplink u -> Some u | From_port _ -> None
  in
  let lead =
    match ingress with
    | From_port _ -> t.profile.Port_profile.notify_latency
    | From_uplink _ -> 0
  in
  List.iter
    (fun p -> if Some p.port_id <> skip_port then egress t p ~lead ~src ~dst pkt)
    (List.rev t.ports);
  List.iter
    (fun u ->
      if Some u.up_id <> skip_uplink then uplink_send u ~src ~dst pkt)
    (List.rev t.uplinks)

let transmit t ~port ~dst pkt =
  let p = find_port t port in
  p.rx_frames <- p.rx_frames + 1;
  Machine.count p.rx_mark;
  (* The sending guest's kick plus the backend's TX path, charged in
     the caller's (guest) process like the netperf model does. *)
  Machine.spend t.ingress_op
    (Port_profile.ingress_cost t.profile ~bytes:(Packet.wire_bytes pkt));
  forward t ~ingress:(From_port port) ~src:p.mac ~dst pkt

let add_uplink t link =
  let up_id = List.length t.uplinks in
  let u =
    {
      up_id;
      up_link = link;
      up_tx_mark =
        Machine.marker t.machine (Marker.uplink ~switch:t.name ~uplink:up_id Tx);
      up_rx_mark =
        Machine.marker t.machine (Marker.uplink ~switch:t.name ~uplink:up_id Rx);
      up_deliver = (fun ~src:_ ~dst:_ _ -> ());
    }
  in
  t.uplinks <- u :: t.uplinks;
  u

let connect a b ~a_to_b ~b_to_a =
  let ua = add_uplink a a_to_b in
  let ub = add_uplink b b_to_a in
  ua.up_deliver <-
    (fun ~src ~dst pkt ->
      Machine.count ub.up_rx_mark;
      forward b ~ingress:(From_uplink ub.up_id) ~src ~dst pkt);
  ub.up_deliver <-
    (fun ~src ~dst pkt ->
      Machine.count ua.up_rx_mark;
      forward a ~ingress:(From_uplink ua.up_id) ~src ~dst pkt)

type port_stats = {
  stat_port : int;
  stat_mac : int;
  rx : int;
  tx : int;
  drops : int;
  queue_depth : int;
}

let port_stats t =
  List.rev_map
    (fun p ->
      {
        stat_port = p.port_id;
        stat_mac = p.mac;
        rx = p.rx_frames;
        tx = p.tx_frames;
        drops = p.dropped;
        queue_depth = p.queued;
      })
    t.ports

let dropped t = List.fold_left (fun s p -> s + p.dropped) 0 t.ports
let flooded t = t.flooded

let mac_table t =
  Hashtbl.fold (fun mac dest l -> (mac, dest) :: l) t.mac_table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
(* lint: sorted — listing is ordered by MAC before it escapes *)

let uplink_links t = List.rev_map (fun u -> u.up_link) t.uplinks
