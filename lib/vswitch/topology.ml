module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Packet = Armvirt_net.Packet
module Link = Armvirt_net.Link
module Hypervisor = Armvirt_hypervisor.Hypervisor

type spec = Single | Pair | Star of int

let hosts_of_spec = function Single -> 1 | Pair -> 2 | Star n -> n

let spec_of_string s =
  match String.lowercase_ascii s with
  | "single" -> Single
  | "pair" -> Pair
  | "star" -> Star 4
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "star" -> (
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some n when n >= 2 -> Star n
          | _ -> invalid_arg "Topology: star:<n> needs n >= 2")
      | _ ->
          invalid_arg
            (Printf.sprintf "Topology: unknown spec %S (single|pair|star|star:<n>)"
               s))

let spec_to_string = function
  | Single -> "single"
  | Pair -> "pair"
  | Star 4 -> "star"
  | Star n -> Printf.sprintf "star:%d" n

type vm = { host : int; port : int; mac : int }

type t = {
  switches : Switch.t array; (* one per host *)
  spine : Switch.t option; (* Star only *)
  vms : vm array;
}

let mk_link sim ~freq_ghz ~gbps =
  (* Generalized [Link.ten_gbe]: a cycle covers gbps/8 GB/s of wire. *)
  let cycles_per_byte = freq_ghz *. 8.0 /. gbps in
  let propagation = Cycles.of_us ~hz:(freq_ghz *. 1e9) 2.0 in
  Link.create sim ~propagation ~cycles_per_byte

let max_vms = 256

let build ?(queue_capacity = 64) ?(uplink_gbps = 10.0) ~vms (hyp : Hypervisor.t)
    spec =
  if vms < 1 then invalid_arg "Topology.build: vms < 1";
  if vms > max_vms then
    invalid_arg (Printf.sprintf "Topology.build: vms > %d" max_vms);
  if uplink_gbps <= 0.0 then invalid_arg "Topology.build: uplink_gbps <= 0";
  (match spec with
  | Star n when n < 2 -> invalid_arg "Topology.build: star needs >= 2 hosts"
  | _ -> ());
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  let freq_ghz = Machine.freq_ghz machine in
  let profile = Port_profile.of_hypervisor hyp in
  let hosts = hosts_of_spec spec in
  let switches =
    Array.init hosts (fun h ->
        Switch.create ~queue_capacity ~name:(Printf.sprintf "s%d" h) machine
          profile)
  in
  let link () = mk_link sim ~freq_ghz ~gbps:uplink_gbps in
  let spine =
    match spec with
    | Single -> None
    | Pair ->
        Switch.connect switches.(0) switches.(1) ~a_to_b:(link ())
          ~b_to_a:(link ());
        None
    | Star _ ->
        let spine =
          Switch.create ~queue_capacity ~name:"spine" machine profile
        in
        Array.iter
          (fun leaf ->
            Switch.connect leaf spine ~a_to_b:(link ()) ~b_to_a:(link ()))
          switches;
        Some spine
  in
  let vms =
    Array.init vms (fun i ->
        let host = i mod hosts in
        let port =
          Switch.attach switches.(host) ~mac:i
            ~deliver:(fun ~src:_ ~dst:_ _ -> ())
        in
        { host; port; mac = i })
  in
  { switches; spine; vms }

let hosts t = Array.length t.switches
let switch t h = t.switches.(h)
let spine t = t.spine

let same_host t a b = t.vms.(a).host = t.vms.(b).host

let set_handler t ~vm deliver =
  let v = t.vms.(vm) in
  Switch.set_handler t.switches.(v.host) ~port:v.port deliver

let send t ~src ~dst pkt =
  let v = t.vms.(src) in
  Switch.transmit t.switches.(v.host) ~port:v.port ~dst:t.vms.(dst).mac pkt

let send_to_mac t ~src ~dst_mac pkt =
  let v = t.vms.(src) in
  Switch.transmit t.switches.(v.host) ~port:v.port ~dst:dst_mac pkt

let all_switches t =
  Array.to_list t.switches @ match t.spine with Some s -> [ s ] | None -> []

let uplinks t = List.concat_map Switch.uplink_links (all_switches t)

let max_uplink_utilization t =
  List.fold_left (fun m l -> Float.max m (Link.utilization l)) 0.0 (uplinks t)

let total_dropped t =
  List.fold_left (fun s sw -> s + Switch.dropped sw) 0 (all_switches t)
