module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Io_profile = Armvirt_hypervisor.Io_profile
module Kernel_costs = Armvirt_guest.Kernel_costs
module Packet = Armvirt_net.Packet
module Link = Armvirt_net.Link
module Nic = Armvirt_net.Nic
module Virtqueue = Armvirt_io.Virtqueue
module Xen_ring = Armvirt_io.Xen_ring
module Event_channel = Armvirt_io.Event_channel
module Grant_table = Armvirt_mem.Grant_table
module Addr = Armvirt_mem.Addr
module Vgic = Armvirt_gic.Vgic

type result = {
  transactions : int;
  time_per_trans_us : float;
  trans_per_sec : float;
  recv_to_send_us : float;
  vm_internal_us : float option;
  rings_used : int;
  grants_used : int;
  virqs_injected : int;
}

(* Calibration shared with the analytic model (see Netperf): the
   host/Dom0 driver+bridge path lengths and the per-transaction guest
   steal. Kept equal so the two implementations are comparable. *)
let host_rx_path = 36_700
let host_tx_path = 28_500
let guest_virt_steal = 4_800
let client_turnaround = 54_920

type stats = {
  mutable rings : int;
  mutable grants : int;
  mutable virqs : int;
}

(* The three I/O transports the configurations use. *)
type transport =
  | Direct  (** Native: the server owns the NIC. *)
  | Virtio of { rx : Virtqueue.t; tx : Virtqueue.t }
  | Xen_pv of {
      rx : Xen_ring.t;
      tx : Xen_ring.t;
      grants : Grant_table.t;
      channels : Event_channel.t;
      io_port : Event_channel.port;  (** guest -> backend kick *)
      irq_port : Event_channel.port;  (** backend -> guest interrupt *)
    }

let make_transport (hyp : Hypervisor.t) =
  let p = hyp.Hypervisor.io_profile in
  if hyp.Hypervisor.kind = Hypervisor.Native then Direct
  else if p.Io_profile.zero_copy then
    Virtio { rx = Virtqueue.create (); tx = Virtqueue.create () }
  else begin
    let channels = Event_channel.create () in
    Xen_pv
      {
        rx = Xen_ring.create ();
        tx = Xen_ring.create ();
        grants = Grant_table.create ();
        channels;
        io_port = Event_channel.alloc channels ~from_dom:1 ~to_dom:0;
        irq_port = Event_channel.alloc channels ~from_dom:0 ~to_dom:1;
      }
  end

let run ?(transactions = 100) (hyp : Hypervisor.t) =
  if transactions < 1 then invalid_arg "Rr_system.run: transactions < 1";
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  let p = hyp.Hypervisor.io_profile in
  let g = hyp.Hypervisor.guest in
  let op = Machine.op machine in
  let rx_grant_op = op Stage2 "rr_system.rx_grant"
  and irq_delivery_op = op Irq "rr_system.irq_delivery"
  and notify_op = op Io "rr_system.notify"
  and tx_grant_op = op Stage2 "rr_system.tx_grant"
  and backend_tx_op = op Io "rr_system.backend_tx"
  and host_tx_path_op = op Io "rr_system.host_tx_path"
  and phys_rx_extra_op = op Io "rr_system.phys_rx_extra"
  and native_server_op = op ~lane:Guest Io "rr_system.native_server"
  and host_rx_path_op = op Io "rr_system.host_rx_path"
  and virq_completion_op = op Irq "rr_system.virq_completion"
  and vm_processing_op = op ~lane:Guest Io "rr_system.vm_processing" in
  let stats = { rings = 0; grants = 0; virqs = 0 } in
  let transport = make_transport hyp in
  let vgic = Vgic.create () in
  (* Plumbing between the stages. *)
  let host_inbox : Packet.t Sim.Mailbox.t = Sim.Mailbox.create ~name:"host-inbox" sim in
  let guest_inbox : Packet.t Sim.Mailbox.t = Sim.Mailbox.create ~name:"guest-inbox" sim in
  let backend_tx_inbox : Packet.t Sim.Mailbox.t = Sim.Mailbox.create ~name:"backend-tx" sim in
  let response_arrived = Sim.Signal.create sim in
  (* The wire between client and server. *)
  let freq_ghz = Machine.freq_ghz machine in
  let server_link = Link.ten_gbe sim ~freq_ghz in
  let client_link = Link.ten_gbe sim ~freq_ghz in
  let server_nic =
    Nic.create ~machine ~dma_cost:500 ~irq_raise:(fun pkt ->
        Sim.Mailbox.send host_inbox pkt)
  in
  Nic.attach server_nic client_link ~remote:(fun pkt ->
      Packet.stamp pkt "client_recv";
      Sim.Signal.notify response_arrived);
  (* Guest-side ring maintenance. *)
  let next_rx_id = ref 0 in
  let post_rx_buffer () =
    match transport with
    | Direct -> ()
    | Virtio { rx; _ } ->
        let id = !next_rx_id in
        incr next_rx_id;
        Virtqueue.add_avail rx
          { Virtqueue.addr = Addr.ipa_of_page (1000 + id); len = 1500; id }
    | Xen_pv { rx; grants; _ } ->
        let id = !next_rx_id in
        incr next_rx_id;
        let gref =
          Grant_table.grant grants ~to_dom:0 ~ipa_page:(1000 + id)
            Grant_table.Full
        in
        Xen_ring.frontend_push rx { Xen_ring.gref; len = 1500; id }
  in
  (* Backend receive: take the posted guest buffer, move the packet into
     it (directly for zero copy; via grant map + copy for Xen), then
     raise the virtual interrupt. *)
  let backend_rx pkt =
    (match transport with
    | Direct -> ()
    | Virtio { rx; _ } ->
        let desc = Option.get (Virtqueue.backend_pop rx) in
        stats.rings <- stats.rings + 1;
        Virtqueue.backend_push_used rx ~id:desc.Virtqueue.id
          ~len:(Packet.wire_bytes pkt)
    | Xen_pv { rx; grants; channels; irq_port; _ } ->
        let req = Option.get (Xen_ring.backend_pop rx) in
        stats.rings <- stats.rings + 1;
        let _page = Grant_table.map grants req.Xen_ring.gref ~by:0 in
        Machine.spend rx_grant_op
          (Io_profile.total_rx_packet_cost p ~bytes:(Packet.wire_bytes pkt)
          - p.Io_profile.backend_cpu_per_packet);
        Grant_table.unmap grants req.Xen_ring.gref ~by:0;
        stats.grants <- stats.grants + 1;
        Xen_ring.backend_respond rx { Xen_ring.id = req.Xen_ring.id; status = 0 };
        Event_channel.send channels irq_port);
    Vgic.inject_or_queue vgic 48;
    stats.virqs <- stats.virqs + 1;
    Machine.spend irq_delivery_op p.Io_profile.irq_delivery_latency;
    Sim.Mailbox.send guest_inbox pkt
  in
  (* Guest transmit: post the response and kick the backend. *)
  let guest_tx pkt =
    (match transport with
    | Direct -> ()
    | Virtio { tx; _ } ->
        let id = Packet.id pkt in
        Virtqueue.add_avail tx
          { Virtqueue.addr = Addr.ipa_of_page (5000 + id); len = 67; id };
        stats.rings <- stats.rings + 1
    | Xen_pv { tx; grants; channels; io_port; _ } ->
        let id = Packet.id pkt in
        let gref =
          Grant_table.grant grants ~to_dom:0 ~ipa_page:(5000 + id)
            Grant_table.Full
        in
        Xen_ring.frontend_push tx { Xen_ring.gref; len = 67; id };
        stats.rings <- stats.rings + 1;
        Event_channel.send channels io_port);
    Machine.spend notify_op p.Io_profile.notify_latency;
    Sim.Mailbox.send backend_tx_inbox pkt
  in
  (* Backend transmit: drain the ring and put the frame on the wire. *)
  let backend_tx pkt =
    (match transport with
    | Direct -> ()
    | Virtio { tx; _ } ->
        let desc = Option.get (Virtqueue.backend_pop tx) in
        Virtqueue.backend_push_used tx ~id:desc.Virtqueue.id ~len:0
    | Xen_pv { tx; grants; channels; io_port; _ } ->
        ignore (Event_channel.consume channels io_port);
        let req = Option.get (Xen_ring.backend_pop tx) in
        let _page = Grant_table.map grants req.Xen_ring.gref ~by:0 in
        Machine.spend tx_grant_op
          (Io_profile.total_tx_packet_cost p ~bytes:(Packet.wire_bytes pkt)
          - p.Io_profile.backend_cpu_per_packet);
        Grant_table.unmap grants req.Xen_ring.gref ~by:0;
        stats.grants <- stats.grants + 1;
        Xen_ring.backend_respond tx { Xen_ring.id = req.Xen_ring.id; status = 0 });
    Machine.spend backend_tx_op p.Io_profile.backend_cpu_per_packet;
    Machine.spend host_tx_path_op host_tx_path;
    Nic.transmit server_nic pkt
  in
  (* Guest cleanup between transactions: reap completions, recycle
     buffers and revoke spent grants. *)
  let guest_reap () =
    match transport with
    | Direct -> ()
    | Virtio { rx; tx } ->
        (match Virtqueue.guest_reap_used rx with
        | Some _ -> post_rx_buffer ()
        | None -> ());
        let rec reap_tx () =
          match Virtqueue.guest_reap_used tx with
          | Some _ -> reap_tx ()
          | None -> ()
        in
        reap_tx ()
    | Xen_pv { rx; tx; _ } ->
        (match Xen_ring.frontend_reap rx with
        | Some rsp ->
            ignore rsp;
            post_rx_buffer ()
        | None -> ());
        let rec reap_tx () =
          match Xen_ring.frontend_reap tx with
          | Some _ -> reap_tx ()
          | None -> ()
        in
        reap_tx ()
  in
  (* --- processes ---------------------------------------------------- *)
  let is_native = transport = Direct in
  (* Host / Dom0 backend. *)
  Sim.spawn sim ~name:"backend-rx" (fun () ->
      for _ = 1 to transactions do
        let pkt = Sim.Mailbox.recv host_inbox in
        Machine.spend phys_rx_extra_op p.Io_profile.phys_rx_extra_latency;
        Packet.stamp pkt "recv";
        if is_native then begin
          Machine.spend native_server_op (Kernel_costs.rr_server_cycles g);
          Packet.stamp pkt "send_mark";
          Nic.transmit server_nic pkt
        end
        else begin
          Machine.spend host_rx_path_op host_rx_path;
          backend_rx pkt
        end
      done);
  if not is_native then begin
    (* The guest VCPU. *)
    Sim.spawn sim ~name:"guest-vcpu" (fun () ->
        for _ = 1 to transactions do
          let pkt = Sim.Mailbox.recv guest_inbox in
          (match transport with
          | Xen_pv { channels; irq_port; _ } ->
              if not (Event_channel.consume channels irq_port) then
                failwith "Rr_system: interrupt without pending event"
          | Direct | Virtio _ -> ());
          (match Vgic.acknowledge vgic with
          | Some irq ->
              Machine.spend virq_completion_op p.Io_profile.virq_completion;
              Vgic.complete vgic irq
          | None -> failwith "Rr_system: interrupt without pending vIRQ");
          Packet.stamp pkt "vm_recv";
          guest_reap ();
          let guest_core =
            Kernel_costs.rr_server_cycles g
            - g.Kernel_costs.irq_top_half - g.Kernel_costs.driver_tx
          in
          Machine.spend vm_processing_op
            (guest_core + p.Io_profile.guest_rx_per_packet
           + p.Io_profile.guest_tx_per_packet + guest_virt_steal);
          Packet.stamp pkt "vm_send";
          guest_tx pkt
        done);
    (* The backend's transmit side. *)
    Sim.spawn sim ~name:"backend-tx" (fun () ->
        for _ = 1 to transactions do
          let pkt = Sim.Mailbox.recv backend_tx_inbox in
          backend_tx pkt;
          Packet.stamp pkt "send_mark"
        done)
  end;
  (* The client. *)
  let pkts = ref [] in
  let elapsed = ref Cycles.zero in
  Sim.spawn sim ~name:"client" (fun () ->
      let t0 = Sim.current_time () in
      for id = 1 to transactions do
        let pkt = Packet.create ~payload:1 ~id () in
        pkts := pkt :: !pkts;
        Packet.stamp pkt "client_send";
        Link.send server_link pkt ~deliver:(fun pkt ->
            Sim.fork sim ~name:"nic-rx" (fun () -> Nic.receive server_nic pkt));
        Sim.Signal.wait response_arrived;
        Sim.delay (Cycles.of_int client_turnaround)
      done;
      elapsed := Cycles.sub (Sim.current_time ()) t0);
  (* Pre-post receive buffers before traffic starts. *)
  (match transport with
  | Direct -> ()
  | Virtio _ | Xen_pv _ ->
      for _ = 1 to 4 do
        post_rx_buffer ()
      done);
  Sim.run sim;
  let pkts = List.rev !pkts in
  let mean_interval a b =
    let values =
      List.filter_map
        (fun pkt ->
          Option.map
            (fun c -> Machine.elapsed_us machine c)
            (Packet.interval pkt a b))
        pkts
    in
    match values with
    | [] -> None
    | _ ->
        Some
          (List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values))
  in
  let total_us = Machine.elapsed_us machine !elapsed in
  let time_per_trans_us = total_us /. float_of_int transactions in
  {
    transactions;
    time_per_trans_us;
    trans_per_sec = 1e6 /. time_per_trans_us;
    recv_to_send_us = Option.value ~default:0.0 (mean_interval "recv" "send_mark");
    vm_internal_us = mean_interval "vm_recv" "vm_send";
    rings_used = stats.rings;
    grants_used = stats.grants;
    virqs_injected = stats.virqs;
  }
