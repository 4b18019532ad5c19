module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Packet = Armvirt_net.Packet
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Io_profile = Armvirt_hypervisor.Io_profile
module Kernel_costs = Armvirt_guest.Kernel_costs

(* Calibration constants for the RR path, in cycles (2.4 GHz basis).
   host_rx_path / host_tx_path are the physical-side driver, bridge and
   backend-queue path lengths in the host kernel (KVM) or Dom0 (Xen) —
   nearly identical software on both, per section III's identical
   kernels. guest_virt_steal is per-transaction time stolen from the
   guest by host-side activity sharing the memory system. *)
let host_rx_path = 36_700
let host_tx_path = 28_500
let guest_virt_steal = 4_800
let client_turnaround = 54_920
let wire_cycles = 4_800
let nic_dma = 500
let rr_payload = 1

let wire_gbps = 9.42

type rr_result = {
  transactions : int;
  time_per_trans_us : float;
  trans_per_sec : float;
  overhead_us : float;
  send_to_recv_us : float;
  recv_to_send_us : float;
  recv_to_vm_recv_us : float option;
  vm_recv_to_vm_send_us : float option;
  vm_send_to_send_us : float option;
  normalized : float;
}

let is_native (hyp : Hypervisor.t) = hyp.Hypervisor.kind = Hypervisor.Native

(* One request-response at the server machine: wire in, server
   processing (through the hypervisor when virtualized), wire out. All
   timestamps land on the packet, mirroring tcpdump at the data-link
   layer plus a capture inside the VM. *)
let transaction (hyp : Hypervisor.t) =
  let p = hyp.Hypervisor.io_profile in
  let g = hyp.Hypervisor.guest in
  let machine = hyp.Hypervisor.machine in
  let op = Machine.op machine in
  let phys_rx_extra_op = op Io "netperf.phys_rx_extra"
  and native_server_op = op ~lane:Guest Io "netperf.native_server"
  and host_rx_path_op = op Io "netperf.host_rx_path"
  and rx_grant_op = op Stage2 "netperf.rx_grant"
  and irq_delivery_op = op Irq "netperf.irq_delivery"
  and vm_processing_op = op ~lane:Guest Io "netperf.vm_processing"
  and notify_op = op Io "netperf.notify"
  and backend_tx_op = op Io "netperf.backend_tx"
  and host_tx_path_op = op Io "netperf.host_tx_path" in
  let native = is_native hyp in
  fun ~id ->
  let pkt = Packet.create ~payload:rr_payload ~id () in
  Packet.stamp pkt "client_send";
  Sim.delay (Cycles.of_int (wire_cycles + nic_dma));
  (* Xen: the physical driver lives in Dom0, which may need waking
     before tcpdump even sees the frame. *)
  Machine.spend phys_rx_extra_op p.Io_profile.phys_rx_extra_latency;
  Packet.stamp pkt "recv";
  if native then
    Machine.spend native_server_op (Kernel_costs.rr_server_cycles g)
  else begin
    (* Physical driver -> bridge -> backend queue, then delivery of the
       virtual interrupt into the VM. *)
    Machine.spend host_rx_path_op host_rx_path;
    Machine.spend rx_grant_op
      (Io_profile.total_rx_packet_cost p ~bytes:(Packet.wire_bytes pkt)
      - p.Io_profile.backend_cpu_per_packet);
    Machine.spend irq_delivery_op p.Io_profile.irq_delivery_latency;
    Packet.stamp pkt "vm_recv";
    (* In-VM residence: the native stack minus the physical driver ends,
       plus paravirtual frontend costs. *)
    let guest_core =
      Kernel_costs.rr_server_cycles g
      - g.Kernel_costs.irq_top_half - g.Kernel_costs.driver_tx
    in
    Machine.spend vm_processing_op
      (guest_core + p.Io_profile.guest_rx_per_packet
      + p.Io_profile.guest_tx_per_packet + p.Io_profile.virq_completion
      + guest_virt_steal);
    Packet.stamp pkt "vm_send";
    (* Kick the backend, which moves the response to the physical NIC. *)
    Machine.spend notify_op p.Io_profile.notify_latency;
    Machine.spend backend_tx_op
      (Io_profile.total_tx_packet_cost p ~bytes:(Packet.wire_bytes pkt));
    Machine.spend host_tx_path_op host_tx_path
  end;
  Packet.stamp pkt "send";
  Sim.delay (Cycles.of_int (nic_dma + wire_cycles));
  Packet.stamp pkt "client_recv";
  (* Client turnaround before the next request hits the wire. *)
  Sim.delay (Cycles.of_int client_turnaround);
  pkt

(* Native residence time on this machine, for the overhead column. *)
let native_us (hyp : Hypervisor.t) =
  let machine = hyp.Hypervisor.machine in
  let g = hyp.Hypervisor.guest in
  Machine.elapsed_us machine
    (Cycles.of_int
       ((2 * (wire_cycles + nic_dma))
       + client_turnaround
       + Kernel_costs.rr_server_cycles g))

(* The Table V legs, averaged over the transactions that stamped both
   ends. *)
let legs =
  [| ("recv", "send"); ("recv", "vm_recv"); ("vm_recv", "vm_send");
     ("vm_send", "send") |]

let run_tcp_rr ?(transactions = 400) (hyp : Hypervisor.t) =
  if transactions < 1 then invalid_arg "Netperf.run_tcp_rr: no transactions";
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  (* Running sums per leg, added in transaction order: no packet is
     kept past its transaction. *)
  let sums = Array.make (Array.length legs) 0.0
  and counts = Array.make (Array.length legs) 0 in
  let elapsed = ref Cycles.zero in
  let transaction = transaction hyp in
  Sim.spawn sim ~name:"netperf-tcp-rr" (fun () ->
      let start = Sim.current_time () in
      for id = 1 to transactions do
        let pkt = transaction ~id in
        Array.iteri
          (fun i (a, b) ->
            match Packet.interval pkt a b with
            | Some c ->
                sums.(i) <- sums.(i) +. Machine.elapsed_us machine c;
                counts.(i) <- counts.(i) + 1
            | None -> ())
          legs
      done;
      elapsed := Cycles.sub (Sim.current_time ()) start);
  Sim.run sim;
  let total_us = Machine.elapsed_us machine !elapsed in
  let time_per_trans_us = total_us /. float_of_int transactions in
  let native = native_us hyp in
  let mean i =
    if counts.(i) = 0 then None else Some (sums.(i) /. float_of_int counts.(i))
  in
  (* "send to recv": server send -> (wire, client, wire, Dom0 wake) ->
     next request visible at the server's physical layer. Per-transaction
     it is everything outside recv->send. *)
  let recv_to_send = Option.value ~default:0.0 (mean 0) in
  {
    transactions;
    time_per_trans_us;
    trans_per_sec = 1e6 /. time_per_trans_us;
    overhead_us = time_per_trans_us -. native;
    send_to_recv_us = time_per_trans_us -. recv_to_send;
    recv_to_send_us = recv_to_send;
    recv_to_vm_recv_us = mean 1;
    vm_recv_to_vm_send_us = mean 2;
    vm_send_to_send_us = mean 3;
    normalized = time_per_trans_us /. native;
  }

type stream_result = {
  gbps : float;
  stream_normalized : float;
  stream_bottleneck : string;
}

let mtu = 1500
let gro_aggregate = 42 (* 64 KB GRO/TSO aggregate, in MTU segments *)

let rate_gbps machine ~cycles_per_chunk ~chunk_bytes =
  let hz = Machine.freq_ghz machine *. 1e9 in
  hz /. float_of_int cycles_per_chunk *. float_of_int chunk_bytes *. 8.0 /. 1e9

(* The tightest bound, the wire unless some other bound is lower. *)
let pick_bound ~wire_gbps bounds =
  List.fold_left
    (fun (bn, bv) (name, v) -> if v < bv then (name, v) else (bn, bv))
    ("wire", wire_gbps) bounds

(* Bulk receive. KVM's VHOST preserves GRO: the guest and backend see
   64 KB aggregates and the wire binds. Xen's netback forwards
   MTU-sized frames, each needing a grant copy, and the guest's
   per-packet costs bind well below line rate (section V). *)
let tcp_stream ?(wire_gbps = wire_gbps) (hyp : Hypervisor.t) =
  let p = hyp.Hypervisor.io_profile in
  let g = hyp.Hypervisor.guest in
  let machine = hyp.Hypervisor.machine in
  if is_native hyp then
    { gbps = wire_gbps; stream_normalized = 1.0; stream_bottleneck = "wire" }
  else begin
    (* The guest stack sees GRO aggregates either way (vhost passes GRO
       through; xen-netfront GROs in the guest), but a copying backend
       must move and grant every MTU frame individually — where KVM's
       vhost hands whole aggregates to the guest ring. *)
    let chunk_bytes = gro_aggregate * mtu in
    let backend_segs = if p.Io_profile.zero_copy then 1 else gro_aggregate in
    (* Events coalesce heavily under load: charge a fifth of a delivery
       per chunk. *)
    let guest_chunk =
      g.Kernel_costs.softirq_rx + g.Kernel_costs.tcp_rx
      + (gro_aggregate * p.Io_profile.guest_rx_per_packet)
      + (p.Io_profile.irq_delivery_guest_cpu / 5)
    in
    let backend_chunk =
      (backend_segs * p.Io_profile.backend_cpu_per_packet)
      + (backend_segs * p.Io_profile.rx_grant_per_packet)
      + int_of_float (p.Io_profile.rx_copy_per_byte *. float_of_int chunk_bytes)
    in
    let bounds =
      [
        ("guest", rate_gbps machine ~cycles_per_chunk:guest_chunk ~chunk_bytes);
        ( "backend",
          rate_gbps machine ~cycles_per_chunk:backend_chunk ~chunk_bytes );
      ]
    in
    let name, best = pick_bound ~wire_gbps bounds in
    { gbps = best; stream_normalized = wire_gbps /. best; stream_bottleneck = name }
  end

(* Bulk transmit. The guest's TCP autosizing sets the in-flight window;
   the 4.0-rc1 regression collapses it when completion latency is high
   (Xen), so throughput is window/RTT-bound. With a healthy window,
   64 KB TSO chunks flow and even Xen's page-granular grant copies keep
   up with the wire. *)
let tcp_maerts ?tso_bug (hyp : Hypervisor.t) =
  let p = hyp.Hypervisor.io_profile in
  let g = hyp.Hypervisor.guest in
  let machine = hyp.Hypervisor.machine in
  if is_native hyp then
    { gbps = wire_gbps; stream_normalized = 1.0; stream_bottleneck = "wire" }
  else begin
    let guest =
      match tso_bug with
      | None -> g
      | Some true -> { g with Kernel_costs.tso_autosizing_bug = true }
      | Some false -> { g with Kernel_costs.tso_autosizing_bug = false }
    in
    (* The completion-latency signal feeding autosizing: only a slow
       (cross-domain) completion path triggers the collapse. *)
    let completion_latency =
      p.Io_profile.notify_latency + p.Io_profile.irq_delivery_latency
    in
    let batch =
      if completion_latency > 20_000 then
        Kernel_costs.tx_batch guest ~mtu_packets:gro_aggregate
      else gro_aggregate
    in
    let window_bytes = batch * mtu in
    let hz = Machine.freq_ghz machine *. 1e9 in
    let rtt_cycles =
      (2 * wire_cycles) + completion_latency
      + Kernel_costs.rr_server_cycles guest / 4
    in
    let window_gbps =
      float_of_int window_bytes /. (float_of_int rtt_cycles /. hz) *. 8.0 /. 1e9
    in
    let chunk_bytes = batch * mtu in
    let page_bytes = 4096 in
    let pages = (chunk_bytes + page_bytes - 1) / page_bytes in
    let backend_chunk =
      p.Io_profile.backend_cpu_per_packet
      + (pages * p.Io_profile.tx_grant_per_packet)
      + int_of_float (p.Io_profile.tx_copy_per_byte *. float_of_int chunk_bytes)
    in
    let guest_chunk =
      g.Kernel_costs.tcp_tx
      + (batch * p.Io_profile.guest_tx_per_packet)
      + (p.Io_profile.kick_guest_cpu / 2)
    in
    let bounds =
      [
        ("window", window_gbps);
        ( "backend",
          rate_gbps machine ~cycles_per_chunk:backend_chunk ~chunk_bytes );
        ("guest", rate_gbps machine ~cycles_per_chunk:guest_chunk ~chunk_bytes);
      ]
    in
    let stream_bottleneck, gbps = pick_bound ~wire_gbps bounds in
    { gbps; stream_normalized = wire_gbps /. gbps; stream_bottleneck }
  end
