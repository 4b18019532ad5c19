(* Tests for Armvirt_vswitch: per-port profiles, forwarding, MAC
   learning and flooding, bounded egress queues with drop accounting,
   and uplink trunks (VLAN framing, cross-switch learning, wire
   utilization). *)

module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Packet = Armvirt_net.Packet
module Link = Armvirt_net.Link
module Platform = Armvirt_core.Platform
module Port_profile = Armvirt_vswitch.Port_profile
module Switch = Armvirt_vswitch.Switch
module Topology = Armvirt_vswitch.Topology
module Rng = Armvirt_engine.Rng

let kvm_arm () = Platform.hypervisor Platform.Arm_m400 Platform.Kvm
let xen_arm () = Platform.hypervisor Platform.Arm_m400 Platform.Xen

let run_process hyp f =
  let machine = hyp.Armvirt_hypervisor.Hypervisor.machine in
  let sim = Machine.sim machine in
  Sim.spawn sim ~name:"test" f;
  Sim.run sim

(* --- port profiles ------------------------------------------------- *)

let test_profile_costs () =
  let kvm = Port_profile.of_hypervisor (kvm_arm ()) in
  let xen = Port_profile.of_hypervisor (xen_arm ()) in
  Alcotest.(check bool) "vhost is zero-copy" true kvm.Port_profile.zero_copy;
  Alcotest.(check bool) "Xen copies" false xen.Port_profile.zero_copy;
  (* Per-packet constants differ, but the Dom0 copy's per-byte term is
     what separates the models at GRO sizes. *)
  let bytes = 64 * 1024 in
  let cost p =
    Port_profile.ingress_cost p ~bytes + Port_profile.egress_cost p ~bytes
  in
  Alcotest.(check bool) "Xen port cost above KVM at 64K" true
    (cost xen > cost kvm);
  (* Zero-copy cost must not scale with bytes. *)
  Alcotest.(check int) "KVM cost byte-independent" (cost kvm)
    (Port_profile.ingress_cost kvm ~bytes:1
    + Port_profile.egress_cost kvm ~bytes:1)

let test_profile_fabric_floor () =
  (* Even a native (free) I/O profile pays the switching fabric, so
     forwarding can never be instantaneous. *)
  let native = Platform.native Platform.Arm_m400 in
  let p = Port_profile.of_hypervisor native in
  Alcotest.(check bool) "fabric floor" true
    (Port_profile.ingress_cost p ~bytes:1 > 0)

(* --- local forwarding ---------------------------------------------- *)

let test_forward_local () =
  let hyp = kvm_arm () in
  let machine = hyp.Armvirt_hypervisor.Hypervisor.machine in
  let sw =
    Switch.create ~name:"s0" machine (Port_profile.of_hypervisor hyp)
  in
  let got = ref [] in
  let p0 =
    Switch.attach sw ~mac:10 ~deliver:(fun ~src:_ ~dst:_ _ -> ())
  in
  let _p1 =
    Switch.attach sw ~mac:11 ~deliver:(fun ~src ~dst pkt ->
        got := (src, dst, Packet.id pkt) :: !got)
  in
  run_process hyp (fun () ->
      let pkt = Packet.create ~payload:100 ~id:7 () in
      Switch.transmit sw ~port:p0 ~dst:11 pkt);
  Alcotest.(check (list (triple int int int))) "frame delivered"
    [ (10, 11, 7) ] !got;
  let stats = Switch.port_stats sw in
  let s0 = List.nth stats 0 and s1 = List.nth stats 1 in
  Alcotest.(check int) "src rx" 1 s0.Switch.rx;
  Alcotest.(check int) "dst tx" 1 s1.Switch.tx;
  Alcotest.(check int) "no drops" 0 (Switch.dropped sw)

let test_forward_takes_time () =
  let hyp = kvm_arm () in
  let machine = hyp.Armvirt_hypervisor.Hypervisor.machine in
  let sim = Machine.sim machine in
  let sw =
    Switch.create ~name:"s0" machine (Port_profile.of_hypervisor hyp)
  in
  let arrival = ref Cycles.zero in
  let p0 = Switch.attach sw ~mac:0 ~deliver:(fun ~src:_ ~dst:_ _ -> ()) in
  let _ =
    Switch.attach sw ~mac:1 ~deliver:(fun ~src:_ ~dst:_ _ ->
        arrival := Sim.current_time ())
  in
  run_process hyp (fun () ->
      Switch.transmit sw ~port:p0 ~dst:1 (Packet.create ~id:1 ()));
  Alcotest.(check bool) "delivery strictly later than t0" true
    (Cycles.to_int !arrival > 0);
  ignore (Sim.now sim)

(* --- learning and flooding ----------------------------------------- *)

let test_learning_and_flood () =
  let hyp = kvm_arm () in
  let machine = hyp.Armvirt_hypervisor.Hypervisor.machine in
  let sw =
    Switch.create ~name:"s0" machine (Port_profile.of_hypervisor hyp)
  in
  let seen = Array.make 3 0 in
  let ports =
    Array.init 3 (fun i ->
        Switch.attach sw ~mac:i ~deliver:(fun ~src:_ ~dst:_ _ ->
            seen.(i) <- seen.(i) + 1))
  in
  run_process hyp (fun () ->
      (* Unknown destination: floods to every port but the ingress. *)
      Switch.transmit sw ~port:ports.(0) ~dst:2 (Packet.create ~id:1 ());
      Sim.delay (Cycles.of_int 10_000_000);
      (* The reply teaches the switch MAC 2's port; a second send from
         port 0 must now go only to port 2. *)
      Switch.transmit sw ~port:ports.(2) ~dst:0 (Packet.create ~id:2 ());
      Sim.delay (Cycles.of_int 10_000_000);
      Switch.transmit sw ~port:ports.(0) ~dst:2 (Packet.create ~id:3 ()));
  Alcotest.(check int) "one flood" 1 (Switch.flooded sw);
  Alcotest.(check int) "port1 saw only the flood" 1 seen.(1);
  Alcotest.(check int) "port2 saw flood + direct" 2 seen.(2);
  Alcotest.(check int) "port0 saw the reply" 1 seen.(0);
  (* MACs 0 and 2 transmitted, so both are learned; MAC 1 never spoke. *)
  Alcotest.(check (list int)) "learned MACs" [ 0; 2 ]
    (List.map fst (Switch.mac_table sw))

(* --- drop accounting ----------------------------------------------- *)

let test_drop_accounting () =
  let hyp = xen_arm () in
  let machine = hyp.Armvirt_hypervisor.Hypervisor.machine in
  let sw =
    Switch.create ~queue_capacity:1 ~name:"s0" machine
      (Port_profile.of_hypervisor hyp)
  in
  let delivered = ref 0 in
  let pr =
    Switch.attach sw ~mac:1 ~deliver:(fun ~src:_ ~dst:_ _ -> incr delivered)
  in
  let senders =
    Array.init 4 (fun i ->
        Switch.attach sw ~mac:(10 + i) ~deliver:(fun ~src:_ ~dst:_ _ -> ()))
  in
  run_process hyp (fun () ->
      (* Teach MAC 1 first so the burst forwards directly — drops must
         be egress-queue overflow, not flood artifacts. *)
      Switch.transmit sw ~port:pr ~dst:10 (Packet.create ~id:0 ());
      Sim.delay (Cycles.of_int 10_000_000);
      (* Four guests kick the same destination at the same instant:
         identical ingress costs land all four frames on the 1-deep
         egress queue in the same tick — one is accepted, three drop. *)
      Array.iter
        (fun s ->
          Sim.spawn_here ~name:"sender" (fun () ->
              Switch.transmit sw ~port:s ~dst:1 (Packet.create ~id:1 ())))
        senders);
  let drops = Switch.dropped sw in
  Alcotest.(check int) "three dropped" 3 drops;
  Alcotest.(check int) "one delivered" 1 !delivered;
  let s_pr = List.nth (Switch.port_stats sw) pr in
  Alcotest.(check int) "drops accounted on the port" drops s_pr.Switch.drops;
  Alcotest.(check int) "tx accounted on the port" 1 s_pr.Switch.tx;
  Alcotest.(check int) "queue drained" 0 s_pr.Switch.queue_depth

let test_bad_args () =
  let hyp = kvm_arm () in
  let machine = hyp.Armvirt_hypervisor.Hypervisor.machine in
  let profile = Port_profile.of_hypervisor hyp in
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Switch.create: queue_capacity < 1") (fun () ->
      ignore (Switch.create ~queue_capacity:0 ~name:"s0" machine profile));
  let sw = Switch.create ~name:"s0" machine profile in
  let _ = Switch.attach sw ~mac:7 ~deliver:(fun ~src:_ ~dst:_ _ -> ()) in
  Alcotest.check_raises "duplicate MAC"
    (Invalid_argument "Switch s0: MAC 7 already attached") (fun () ->
      ignore (Switch.attach sw ~mac:7 ~deliver:(fun ~src:_ ~dst:_ _ -> ())))

(* --- uplinks ------------------------------------------------------- *)

let test_uplink_cross_switch () =
  let hyp = kvm_arm () in
  let topo = Topology.build ~vms:2 hyp Topology.Pair in
  let got = ref [] in
  Topology.set_handler topo ~vm:1 (fun ~src ~dst pkt ->
      got := (src, dst, Packet.framing_bytes pkt) :: !got);
  run_process hyp (fun () ->
      Topology.send topo ~src:0 ~dst:1 (Packet.create ~payload:500 ~id:1 ()));
  (* The 802.1Q tag rides only the wire: the delivered frame is back to
     untagged framing. *)
  Alcotest.(check (list (triple int int int))) "delivered untagged"
    [ (0, 1, Packet.default_framing) ] !got;
  (* The far switch learned the source MAC as reachable via the uplink. *)
  (match Switch.mac_table (Topology.switch topo 1) with
  | (0, Switch.Via_uplink _) :: _ -> ()
  | _ -> Alcotest.fail "expected MAC 0 via uplink on s1");
  Alcotest.(check bool) "uplink utilization measured" true
    (Topology.max_uplink_utilization topo > 0.0)

let test_uplink_vlan_on_wire () =
  let hyp = kvm_arm () in
  let topo = Topology.build ~vms:2 hyp Topology.Pair in
  run_process hyp (fun () ->
      Topology.send topo ~src:0 ~dst:1 (Packet.create ~payload:500 ~id:1 ()));
  (* Exactly one frame crossed, on s0's outbound wire; busy cycles must
     account the tagged size: payload + default framing + VLAN tag. *)
  let wire = List.hd (Switch.uplink_links (Topology.switch topo 0)) in
  Alcotest.(check int) "one delivery" 1 (Link.delivered wire);
  let tagged = 500 + Packet.default_framing + Packet.vlan_tag_bytes in
  let machine = hyp.Armvirt_hypervisor.Hypervisor.machine in
  let cycles_per_byte = Machine.freq_ghz machine *. 8.0 /. 10.0 in
  let expect = int_of_float (ceil (float_of_int tagged *. cycles_per_byte)) in
  Alcotest.(check bool) "busy cycles match tagged frame" true
    (abs (Link.busy_cycles wire - expect) <= 2)

let test_star_topology () =
  let hyp = kvm_arm () in
  (* 4 VMs over 2 leaves: vm0,2 on leaf0; vm1,3 on leaf1. vm0 -> vm3
     crosses leaf0 -> spine -> leaf1. *)
  let topo = Topology.build ~vms:4 hyp (Topology.Star 2) in
  let got = ref 0 in
  Topology.set_handler topo ~vm:3 (fun ~src:_ ~dst pkt ->
      if dst = 3 then got := !got + Packet.id pkt);
  run_process hyp (fun () ->
      Topology.send topo ~src:0 ~dst:3 (Packet.create ~id:21 ()));
  Alcotest.(check int) "delivered across the spine" 21 !got;
  Alcotest.(check int) "two hosts + spine" 2 (Topology.hosts topo);
  Alcotest.(check bool) "spine exists" true (Topology.spine topo <> None)

(* --- conservation ---------------------------------------------------- *)

(* A fabric and its traffic, drawn from one seed: a topology, a VM
   count, egress queues small enough to drop, and frames of random size
   between random VM pairs, about half of them back to back. *)
type scenario = {
  xen : bool;
  spec : Topology.spec;
  vms : int;
  capacity : int;
  frames : (int * int * int * int) list; (* src, dst, payload, gap *)
}

let draw seed =
  let rng = Rng.create ~seed in
  let xen = Rng.bool rng in
  let spec =
    match Rng.int rng ~bound:3 with
    | 0 -> Topology.Single
    | 1 -> Topology.Pair
    | _ -> Topology.Star (2 + Rng.int rng ~bound:3)
  in
  let vms = 2 + Rng.int rng ~bound:7 in
  let capacity = 1 + Rng.int rng ~bound:3 in
  let frame _ =
    let src = Rng.int rng ~bound:vms in
    let dst = (src + 1 + Rng.int rng ~bound:(vms - 1)) mod vms in
    let payload = Rng.int rng ~bound:3000 in
    let gap = if Rng.bool rng then 0 else Rng.int rng ~bound:20_000 in
    (src, dst, payload, gap)
  in
  let frames = List.init (1 + Rng.int rng ~bound:24) frame in
  { xen; spec; vms; capacity; frames }

let show_scenario sc =
  Printf.sprintf "%s %s, %d VMs, capacity %d, frames %s"
    (if sc.xen then "xen" else "kvm")
    (Topology.spec_to_string sc.spec)
    sc.vms sc.capacity
    (String.concat " "
       (List.map
          (fun (s, d, p, g) -> Printf.sprintf "%d->%d:%dB+%d" s d p g)
          sc.frames))

let unknown_mac = 1_000_000
let flood_payload = 64

(* Every VM first floods one frame to a MAC nobody has, which teaches
   every switch where every VM is; the drawn frames then follow fixed
   routes. Returns the topology and the frames each VM's handler got. *)
let run_scenario sc =
  let hyp = if sc.xen then xen_arm () else kvm_arm () in
  let topo =
    Topology.build ~queue_capacity:sc.capacity ~vms:sc.vms hyp sc.spec
  in
  let got = Array.make sc.vms 0 in
  for v = 0 to sc.vms - 1 do
    Topology.set_handler topo ~vm:v (fun ~src:_ ~dst:_ _ ->
        got.(v) <- got.(v) + 1)
  done;
  run_process hyp (fun () ->
      for v = 0 to sc.vms - 1 do
        Topology.send_to_mac topo ~src:v ~dst_mac:unknown_mac
          (Packet.create ~payload:flood_payload ~id:(-v - 1) ())
      done;
      Sim.delay (Cycles.of_int 50_000_000);
      List.iteri
        (fun i (src, dst, payload, gap) ->
          Sim.delay (Cycles.of_int gap);
          Topology.send topo ~src ~dst (Packet.create ~payload ~id:i ()))
        sc.frames);
  (hyp, topo, got)

(* The outbound wires a frame from host [hs] crosses: to host [hd], or
   to every other host when it floods. VMs round-robin over hosts; a
   leaf's one uplink goes to the spine, and the spine's uplink [j] to
   leaf [j]. *)
let wires_crossed topo spec ~hs ~hd =
  let up sw i = List.nth (Switch.uplink_links sw) i in
  let leaf h = up (Topology.switch topo h) 0 in
  match (spec, Topology.spine topo) with
  | Topology.Single, _ -> []
  | Topology.Pair, _ -> if hd = Some hs then [] else [ leaf hs ]
  | Topology.Star n, Some spine -> (
      match hd with
      | Some h when h = hs -> []
      | Some h -> [ leaf hs; up spine h ]
      | None ->
          leaf hs
          :: List.filter_map
               (fun j -> if j = hs then None else Some (up spine j))
               (List.init n Fun.id))
  | Topology.Star _, None -> Alcotest.fail "star without a spine"

let prop_conservation =
  QCheck.Test.make ~name:"ports and wires conserve frames" ~count:200
    (QCheck.make ~print:(fun seed -> show_scenario (draw seed))
       QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let sc = draw seed in
      let hyp, topo, got = run_scenario sc in
      let hosts = Topology.hosts topo in
      let host v = v mod hosts in
      let machine = hyp.Armvirt_hypervisor.Hypervisor.machine in
      let cycles_per_byte =
        Link.cycles_per_byte_of_gbps ~freq_ghz:(Machine.freq_ghz machine) 10.0
      in
      let serialization payload =
        let bytes = payload + Packet.default_framing + Packet.vlan_tag_bytes in
        int_of_float (Float.round (cycles_per_byte *. float_of_int bytes))
      in
      (* Expected crossings per wire, as (wire, serialization) pairs. *)
      let crossings =
        List.concat_map
          (fun v ->
            List.map
              (fun w -> (w, serialization flood_payload))
              (wires_crossed topo sc.spec ~hs:(host v) ~hd:None))
          (List.init sc.vms Fun.id)
        @ List.concat_map
            (fun (src, dst, payload, _) ->
              List.map
                (fun w -> (w, serialization payload))
                (wires_crossed topo sc.spec ~hs:(host src)
                   ~hd:(Some (host dst))))
            sc.frames
      in
      let on w = List.filter (fun (w', _) -> w' == w) crossings in
      let wires_ok =
        List.for_all
          (fun sw ->
            List.for_all
              (fun w ->
                let mine = on w in
                Link.delivered w = List.length mine
                && Link.in_flight w = 0
                && Link.busy_cycles w
                   = List.fold_left (fun acc (_, c) -> acc + c) 0 mine)
              (Switch.uplink_links sw))
          (List.init hosts (Topology.switch topo)
          @ Option.to_list (Topology.spine topo))
      in
      (* Each port is offered every other VM's flood and the frames
         addressed to it. *)
      let ports_ok =
        List.for_all
          (fun v ->
            let sw = Topology.switch topo (host v) in
            let st = List.nth (Switch.port_stats sw) (v / hosts) in
            let count p = List.length (List.filter p sc.frames) in
            let offered = sc.vms - 1 + count (fun (_, d, _, _) -> d = v) in
            st.Switch.stat_mac = v
            && st.Switch.rx = 1 + count (fun (s, _, _, _) -> s = v)
            && st.Switch.tx + st.Switch.drops = offered
            && st.Switch.queue_depth = 0
            && got.(v) = st.Switch.tx)
          (List.init sc.vms Fun.id)
      in
      wires_ok && ports_ok)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vswitch"
    [
      ( "profile",
        [
          Alcotest.test_case "port costs order" `Quick test_profile_costs;
          Alcotest.test_case "fabric floor" `Quick test_profile_fabric_floor;
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "local forward" `Quick test_forward_local;
          Alcotest.test_case "takes time" `Quick test_forward_takes_time;
          Alcotest.test_case "learning and flood" `Quick
            test_learning_and_flood;
        ] );
      ( "queues",
        [
          Alcotest.test_case "drop accounting" `Quick test_drop_accounting;
          Alcotest.test_case "bad args" `Quick test_bad_args;
        ] );
      ( "uplinks",
        [
          Alcotest.test_case "cross switch" `Quick test_uplink_cross_switch;
          Alcotest.test_case "vlan on wire" `Quick test_uplink_vlan_on_wire;
          Alcotest.test_case "star" `Quick test_star_topology;
        ] );
      ("conservation", qcheck [ prop_conservation ]);
    ]
