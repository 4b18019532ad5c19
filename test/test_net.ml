(* Tests for Armvirt_net: packets with layer timestamps, the 10 GbE link
   and the NIC model. *)

module Cycles = Armvirt_engine.Cycles
module Sim = Armvirt_engine.Sim
module Machine = Armvirt_arch.Machine
module Cost_model = Armvirt_arch.Cost_model
module Packet = Armvirt_net.Packet
module Link = Armvirt_net.Link
module Nic = Armvirt_net.Nic

let arm_machine sim =
  Machine.create sim ~cost:(Cost_model.Arm Cost_model.arm_default) ~num_cpus:8

(* --- Packet ---------------------------------------------------------- *)

let test_packet_bytes () =
  let p = Packet.create ~payload:1 ~id:1 () in
  Alcotest.(check int) "payload" 1 (Packet.payload_bytes p);
  Alcotest.(check int) "framing added" 67 (Packet.wire_bytes p);
  let big = Packet.create ~payload:1434 ~id:2 () in
  Alcotest.(check int) "MTU frame" 1500 (Packet.wire_bytes big)

let test_packet_framing_param () =
  (* The 66-byte constant is now a parameter: trunk ports re-frame with
     the 802.1Q tag, everything else defaults to the old behavior. *)
  Alcotest.(check int) "default framing" 66 Packet.default_framing;
  Alcotest.(check int) "vlan tag" 4 Packet.vlan_tag_bytes;
  let p = Packet.create ~framing:70 ~payload:30 ~id:1 () in
  Alcotest.(check int) "custom framing" 70 (Packet.framing_bytes p);
  Alcotest.(check int) "wire bytes" 100 (Packet.wire_bytes p);
  let q = Packet.create ~payload:1 ~id:2 () in
  Packet.set_framing q (Packet.framing_bytes q + Packet.vlan_tag_bytes);
  Alcotest.(check int) "tagged on the trunk" 71 (Packet.wire_bytes q);
  Packet.set_framing q (Packet.framing_bytes q - Packet.vlan_tag_bytes);
  Alcotest.(check int) "stripped at the far side" 67 (Packet.wire_bytes q);
  Alcotest.check_raises "negative framing"
    (Invalid_argument "Packet.create: negative framing") (fun () ->
      ignore (Packet.create ~framing:(-1) ~id:3 ()));
  Alcotest.check_raises "negative reframe"
    (Invalid_argument "Packet.set_framing: negative framing") (fun () ->
      Packet.set_framing q (-1))

let test_packet_zero_payload () =
  (* A bare ACK: no payload, framing only. *)
  let p = Packet.create ~payload:0 ~id:1 () in
  Alcotest.(check int) "framing only" 66 (Packet.wire_bytes p);
  Alcotest.check_raises "negative payload"
    (Invalid_argument "Packet.create: negative payload") (fun () ->
      ignore (Packet.create ~payload:(-1) ~id:2 ()))

let test_packet_stamps () =
  let sim = Sim.create () in
  let p = Packet.create ~id:1 () in
  Sim.spawn sim ~name:"stamper" (fun () ->
      Packet.stamp p "recv";
      Sim.delay (Cycles.of_int 250);
      Packet.stamp p "send");
  Sim.run sim;
  (match Packet.interval p "recv" "send" with
  | Some c -> Alcotest.(check int) "interval" 250 (Cycles.to_int c)
  | None -> Alcotest.fail "interval missing");
  Alcotest.(check bool) "reverse interval is None" true
    (Packet.interval p "send" "recv" = None);
  Alcotest.(check bool) "missing stamp" true
    (Packet.interval p "recv" "nowhere" = None);
  Alcotest.(check (list string)) "chronological order" [ "recv"; "send" ]
    (List.map fst (Packet.stamps p))

let test_packet_restamp_overwrites () =
  let sim = Sim.create () in
  let p = Packet.create ~id:1 () in
  Sim.spawn sim ~name:"stamper" (fun () ->
      Packet.stamp p "x";
      Sim.delay (Cycles.of_int 100);
      Packet.stamp p "x");
  Sim.run sim;
  (match Packet.timestamp p "x" with
  | Some c -> Alcotest.(check int) "latest wins" 100 (Cycles.to_int c)
  | None -> Alcotest.fail "stamp missing")

(* Stamps against a [Hashtbl] reference: random stamp and restamp
   sequences over up to 12 labels, at arbitrary (often repeated) times.
   Labels are rebuilt for every call, so lookups must match by content,
   not by pointer. [stamps] is the reference's final times in time
   order, ties in first-stamp order. *)
let prop_packet_stamps_match_reference =
  QCheck.Test.make ~count:1000 ~name:"stamps match a Hashtbl reference"
    QCheck.(list_of_size Gen.(int_bound 40) (pair (int_bound 11) (int_bound 20)))
    (fun program ->
      let label i = String.concat "" [ "stamp"; string_of_int i ] in
      let p = Packet.create ~id:1 () in
      let reference = Hashtbl.create 12 and first_order = ref [] in
      List.iter
        (fun (i, time) ->
          Packet.stamp_at p (label i) (Cycles.of_int time);
          if not (Hashtbl.mem reference i) then first_order := i :: !first_order;
          Hashtbl.replace reference i time)
        program;
      let labels = List.init 12 Fun.id in
      let timestamps_agree =
        List.for_all
          (fun i ->
            Option.map Cycles.to_int (Packet.timestamp p (label i))
            = Hashtbl.find_opt reference i)
          labels
      in
      let intervals_agree =
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                let expected =
                  match (Hashtbl.find_opt reference a, Hashtbl.find_opt reference b) with
                  | Some ta, Some tb when tb >= ta -> Some (tb - ta)
                  | _ -> None
                in
                Option.map Cycles.to_int (Packet.interval p (label a) (label b))
                = expected)
              labels)
          labels
      in
      let expected_stamps =
        List.rev !first_order
        |> List.map (fun i -> (label i, Hashtbl.find reference i))
        |> List.stable_sort (fun (_, a) (_, b) -> Int.compare a b)
      in
      timestamps_agree && intervals_agree
      && List.map (fun (l, t) -> (l, Cycles.to_int t)) (Packet.stamps p)
         = expected_stamps)

(* --- Link ------------------------------------------------------------ *)

let test_link_latency () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~propagation:(Cycles.of_int 1000) ~cycles_per_byte:2.0
  in
  let arrival = ref (-1) in
  Sim.spawn sim ~name:"sender" (fun () ->
      let p = Packet.create ~payload:34 ~id:1 () (* 100 wire bytes *) in
      Link.send link p ~deliver:(fun _ ->
          arrival := Cycles.to_int (Sim.current_time ())));
  Sim.run sim;
  (* 100 bytes * 2 cycles/byte serialization + 1000 propagation. *)
  Alcotest.(check int) "serialization + propagation" 1200 !arrival;
  Alcotest.(check int) "delivered count" 1 (Link.delivered link)

let test_link_fifo_and_serialization () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~propagation:(Cycles.of_int 1000) ~cycles_per_byte:2.0
  in
  let arrivals = ref [] in
  Sim.spawn sim ~name:"sender" (fun () ->
      for i = 1 to 2 do
        let p = Packet.create ~payload:34 ~id:i () in
        Link.send link p ~deliver:(fun pkt ->
            arrivals :=
              (Packet.id pkt, Cycles.to_int (Sim.current_time ())) :: !arrivals)
      done);
  Sim.run sim;
  (* Second frame waits for the wire: starts serializing at 200. *)
  Alcotest.(check (list (pair int int))) "in order, serialized"
    [ (1, 1200); (2, 1400) ]
    (List.rev !arrivals)

let test_link_ten_gbe_rate () =
  let sim = Sim.create () in
  let link = Link.ten_gbe sim ~freq_ghz:2.4 in
  let arrival = ref 0 in
  Sim.spawn sim ~name:"sender" (fun () ->
      let p = Packet.create ~payload:1434 ~id:1 () in
      Link.send link p ~deliver:(fun _ ->
          arrival := Cycles.to_int (Sim.current_time ())));
  Sim.run sim;
  (* 1500 B at 10 Gb/s = 1.2 us = 2880 cycles, + 2 us propagation. *)
  let expected = 2880 + 4800 in
  Alcotest.(check bool) "10GbE timing" true (abs (!arrival - expected) < 10)

let test_link_utilization () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~propagation:(Cycles.of_int 1000) ~cycles_per_byte:2.0
  in
  Alcotest.(check (float 1e-9)) "idle wire" 0.0 (Link.utilization link);
  Sim.spawn sim ~name:"sender" (fun () ->
      let p = Packet.create ~payload:34 ~id:1 () (* 100 wire bytes *) in
      Link.send link p ~deliver:(fun _ -> ()));
  Sim.run sim;
  (* 200 busy cycles; the run ends at delivery, t = 1200. *)
  Alcotest.(check int) "busy cycles" 200 (Link.busy_cycles link);
  Alcotest.(check (float 1e-6)) "utilization" (200.0 /. 1200.0)
    (Link.utilization link)

let test_link_utilization_bounded () =
  (* Back-to-back frames keep serialization committed into the future;
     the figure must stay within [0, 1] throughout. *)
  let sim = Sim.create () in
  let link =
    Link.create sim ~propagation:(Cycles.of_int 1000) ~cycles_per_byte:2.0
  in
  Sim.spawn sim ~name:"sender" (fun () ->
      for i = 1 to 10 do
        Link.send link (Packet.create ~payload:34 ~id:i ()) ~deliver:(fun _ ->
            let u = Link.utilization link in
            Alcotest.(check bool) "bounded" true (u > 0.0 && u <= 1.0))
      done);
  Sim.run sim;
  Alcotest.(check int) "all serialization accounted" 2000
    (Link.busy_cycles link)

(* --- Nic ------------------------------------------------------------- *)

let test_nic_rx_raises_irq () =
  let sim = Sim.create () in
  let machine = arm_machine sim in
  let irqs = ref [] in
  let nic =
    Nic.create ~machine ~dma_cost:500 ~irq_raise:(fun p ->
        irqs := Packet.id p :: !irqs)
  in
  Sim.spawn sim ~name:"wire" (fun () ->
      Nic.receive nic (Packet.create ~id:7 ()));
  Sim.run sim;
  Alcotest.(check (list int)) "IRQ raised with the frame" [ 7 ] !irqs;
  Alcotest.(check int) "rx counted" 1 (Nic.rx_count nic);
  Alcotest.(check int) "DMA cost spent" 500
    (Cycles.to_int (Sim.now sim))

let test_nic_tx_reaches_remote () =
  let sim = Sim.create () in
  let machine = arm_machine sim in
  let received = ref [] in
  let nic = Nic.create ~machine ~dma_cost:500 ~irq_raise:(fun _ -> ()) in
  let link = Link.ten_gbe sim ~freq_ghz:2.4 in
  Nic.attach nic link ~remote:(fun p -> received := Packet.id p :: !received);
  Sim.spawn sim ~name:"driver" (fun () ->
      Nic.transmit nic (Packet.create ~id:3 ()));
  Sim.run sim;
  Alcotest.(check (list int)) "remote got the frame" [ 3 ] !received;
  Alcotest.(check int) "tx counted" 1 (Nic.tx_count nic)

let test_nic_tx_without_link_fails () =
  let sim = Sim.create () in
  let machine = arm_machine sim in
  let nic = Nic.create ~machine ~dma_cost:500 ~irq_raise:(fun _ -> ()) in
  let failed = ref false in
  Sim.spawn sim ~name:"driver" (fun () ->
      match Nic.transmit nic (Packet.create ~id:1 ()) with
      | () -> ()
      | exception Failure _ -> failed := true);
  Sim.run sim;
  Alcotest.(check bool) "no link attached" true !failed

let test_nic_zero_payload () =
  (* A bare ACK traverses both NIC paths like any frame. *)
  let sim = Sim.create () in
  let machine = arm_machine sim in
  let irqs = ref 0 in
  let nic =
    Nic.create ~machine ~dma_cost:500 ~irq_raise:(fun _ -> incr irqs)
  in
  let link = Link.ten_gbe sim ~freq_ghz:2.4 in
  let remote = ref 0 in
  Nic.attach nic link ~remote:(fun _ -> incr remote);
  Sim.spawn sim ~name:"driver" (fun () ->
      Nic.receive nic (Packet.create ~payload:0 ~id:1 ());
      Nic.transmit nic (Packet.create ~payload:0 ~id:2 ()));
  Sim.run sim;
  Alcotest.(check int) "irq raised" 1 !irqs;
  Alcotest.(check int) "remote reached" 1 !remote;
  Alcotest.(check int) "rx counted" 1 (Nic.rx_count nic);
  Alcotest.(check int) "tx counted" 1 (Nic.tx_count nic)

let test_nic_counters_interleaved_bulk () =
  (* Packet traffic and bulk streaming (migration pre-copy) share the
     wire: FIFO order holds, counters see only the packets, and the
     wire's busy accounting sees both. *)
  let sim = Sim.create () in
  let machine = arm_machine sim in
  let nic = Nic.create ~machine ~dma_cost:500 ~irq_raise:(fun _ -> ()) in
  let link = Link.create sim ~propagation:(Cycles.of_int 1000)
      ~cycles_per_byte:2.0
  in
  let order = ref [] in
  Nic.attach nic link ~remote:(fun p -> order := Packet.id p :: !order);
  Sim.spawn sim ~name:"driver" (fun () ->
      Nic.transmit nic (Packet.create ~payload:34 ~id:1 ());
      let bulk_latency = Link.send_bulk link ~bytes:10_000 in
      Alcotest.(check bool) "bulk queued behind the frame" true
        (Cycles.to_int bulk_latency > 20_000);
      Nic.transmit nic (Packet.create ~payload:34 ~id:2 ()));
  Sim.run sim;
  Alcotest.(check (list int)) "packets in FIFO order" [ 1; 2 ] (List.rev !order);
  Alcotest.(check int) "tx counts packets only" 2 (Nic.tx_count nic);
  Alcotest.(check int) "rx untouched" 0 (Nic.rx_count nic);
  (* 2 x 100 wire bytes + 10000 bulk bytes, 2 cycles each. *)
  Alcotest.(check int) "wire busy sees both" 20400 (Link.busy_cycles link)

let test_nic_stamps_layers () =
  let sim = Sim.create () in
  let machine = arm_machine sim in
  let nic = Nic.create ~machine ~dma_cost:500 ~irq_raise:(fun _ -> ()) in
  let link = Link.ten_gbe sim ~freq_ghz:2.4 in
  Nic.attach nic link ~remote:(fun _ -> ());
  let p = Packet.create ~id:1 () in
  Sim.spawn sim ~name:"driver" (fun () ->
      Nic.receive nic p;
      Nic.transmit nic p);
  Sim.run sim;
  Alcotest.(check bool) "tcpdump points present" true
    (Packet.timestamp p "nic_rx" <> None && Packet.timestamp p "nic_tx" <> None)

let () =
  Alcotest.run "net"
    [
      ( "packet",
        [
          Alcotest.test_case "wire bytes" `Quick test_packet_bytes;
          Alcotest.test_case "framing parameter" `Quick
            test_packet_framing_param;
          Alcotest.test_case "zero payload" `Quick test_packet_zero_payload;
          Alcotest.test_case "stamps and intervals" `Quick test_packet_stamps;
          Alcotest.test_case "restamp overwrites" `Quick
            test_packet_restamp_overwrites;
          QCheck_alcotest.to_alcotest prop_packet_stamps_match_reference;
        ] );
      ( "link",
        [
          Alcotest.test_case "latency" `Quick test_link_latency;
          Alcotest.test_case "fifo and serialization" `Quick
            test_link_fifo_and_serialization;
          Alcotest.test_case "10GbE rate" `Quick test_link_ten_gbe_rate;
          Alcotest.test_case "utilization" `Quick test_link_utilization;
          Alcotest.test_case "utilization bounded" `Quick
            test_link_utilization_bounded;
        ] );
      ( "nic",
        [
          Alcotest.test_case "rx raises irq" `Quick test_nic_rx_raises_irq;
          Alcotest.test_case "tx reaches remote" `Quick test_nic_tx_reaches_remote;
          Alcotest.test_case "tx without link fails" `Quick
            test_nic_tx_without_link_fails;
          Alcotest.test_case "zero payload" `Quick test_nic_zero_payload;
          Alcotest.test_case "interleaved bulk" `Quick
            test_nic_counters_interleaved_bulk;
          Alcotest.test_case "stamps layers" `Quick test_nic_stamps_layers;
        ] );
    ]
