module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Rng = Armvirt_engine.Rng
module Summary = Armvirt_stats.Summary
module Machine = Armvirt_arch.Machine
module Packet = Armvirt_net.Packet
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Kernel_costs = Armvirt_guest.Kernel_costs
module Switch = Armvirt_vswitch.Switch
module Topology = Armvirt_vswitch.Topology

(* A load balancer forwards without application processing: the guest
   RX and TX protocol paths, no app_rr_process. *)
let lb_cycles (g : Kernel_costs.t) =
  g.Kernel_costs.softirq_rx + g.Kernel_costs.tcp_rx + g.Kernel_costs.tcp_tx
  + g.Kernel_costs.driver_tx

(* --- pairwise throughput matrix ----------------------------------- *)

(* iperf chunking: a 64 KB GRO/TSO aggregate, as in Netperf.tcp_stream. *)
let chunk_payload = 42 * 1500

type pair_result = {
  src : int;
  dst : int;
  cross_host : bool;
  gbps : float;
}

type matrix_result = {
  config : string;
  topology : string;
  vms : int;
  pairs : pair_result list;
  uplink_utilization : float;
  dropped : int;
}

let matrix_window = 4

let run_matrix ?(chunks = 16) ?(window = matrix_window) ?(vms = 4)
    ?(spec = Topology.Pair) ?queue_capacity ?uplink_gbps (hyp : Hypervisor.t) =
  if chunks < 1 then invalid_arg "Cluster.run_matrix: chunks < 1";
  if window < 1 then invalid_arg "Cluster.run_matrix: window < 1";
  if vms < 2 then invalid_arg "Cluster.run_matrix: vms < 2";
  (* The sender waits for each chunk's delivery, so a measured chunk an
     egress queue dropped would block it for good: the queue must hold
     the whole window. Only the unmeasured learning frames can drop. *)
  let queue_capacity = Option.value queue_capacity ~default:(2 * window) in
  if queue_capacity < window then
    invalid_arg "Cluster.run_matrix: queue_capacity < window";
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  let topo = Topology.build ~queue_capacity ?uplink_gbps ~vms hyp spec in
  let hz = Machine.freq_ghz machine *. 1e9 in
  let results = ref [] in
  Sim.spawn sim ~name:"cluster-matrix" (fun () ->
      let done_mb = Sim.Mailbox.create ~name:"matrix-done" sim in
      (* Matrix receivers never transmit, so MAC learning would flood
         every chunk: teach the switches each VM's location with one
         unmeasured gratuitous frame per VM, then let the floods
         drain. *)
      for v = 0 to vms - 1 do
        let pkt = Packet.create ~payload:1 ~id:(-v - 1) () in
        Topology.send topo ~src:v ~dst:((v + 1) mod vms) pkt
      done;
      Sim.delay (Cycles.of_int 50_000_000);
      for src = 0 to vms - 1 do
        for dst = 0 to vms - 1 do
          if src <> dst then begin
            Topology.set_handler topo ~vm:dst (fun ~src:_ ~dst:dmac pkt ->
                (* Promiscuous tap: floods reach everyone; the guest
                   stack keeps only frames addressed to it. *)
                if dmac = dst then Sim.Mailbox.send done_mb (Packet.id pkt));
            let start = Sim.current_time () in
            let outstanding = ref 0 in
            for k = 1 to chunks do
              if !outstanding >= window then begin
                ignore (Sim.Mailbox.recv done_mb);
                decr outstanding
              end;
              let pkt = Packet.create ~payload:chunk_payload ~id:k () in
              Topology.send topo ~src ~dst pkt;
              incr outstanding
            done;
            while !outstanding > 0 do
              ignore (Sim.Mailbox.recv done_mb);
              decr outstanding
            done;
            Topology.set_handler topo ~vm:dst (fun ~src:_ ~dst:_ _ -> ());
            let elapsed =
              Cycles.to_int (Cycles.sub (Sim.current_time ()) start)
            in
            let bits = float_of_int (chunks * chunk_payload) *. 8.0 in
            let gbps = bits /. (float_of_int elapsed /. hz) /. 1e9 in
            results :=
              { src; dst; cross_host = not (Topology.same_host topo src dst); gbps }
              :: !results
          end
        done
      done);
  Sim.run sim;
  {
    config = hyp.Hypervisor.name;
    topology = Topology.spec_to_string spec;
    vms;
    pairs = List.rev !results;
    uplink_utilization = Topology.max_uplink_utilization topo;
    dropped = Topology.total_dropped topo;
  }

let matrix_mean ~cross (r : matrix_result) =
  let selected = List.filter (fun p -> p.cross_host = cross) r.pairs in
  match selected with
  | [] -> 0.0
  | l ->
      List.fold_left (fun s p -> s +. p.gbps) 0.0 l /. float_of_int (List.length l)

(* --- service chain ------------------------------------------------- *)

type chain_result = {
  chain_config : string;
  chain_topology : string;
  requests : int;
  hops : (string * float) list; (* mean us per hop, chain order *)
  mean_total_us : float;
  p99_total_us : float;
  backend_cross_host : bool;
}

let hop_names =
  [
    ("client->lb", ("client_send", "lb_recv"));
    ("lb", ("lb_recv", "lb_send"));
    ("lb->backend", ("lb_send", "backend_recv"));
    ("backend", ("backend_recv", "backend_send"));
    ("backend->lb", ("backend_send", "lb_ret_recv"));
    ("lb-return", ("lb_ret_recv", "lb_ret_send"));
    ("lb->client", ("lb_ret_send", "client_recv"));
  ]

let run_chain ?(requests = 400) ?(payload = 256) ?(spec = Topology.Pair)
    ?uplink_gbps (hyp : Hypervisor.t) =
  if requests < 1 then invalid_arg "Cluster.run_chain: requests < 1";
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  (* Three VMs: the client and LB share host 0; the backend sits on
     host 1 when the topology has one (the cross-host hop the paper's
     single-wire setup cannot express). *)
  let topo = Topology.build ?uplink_gbps ~vms:3 hyp spec in
  let client = 0 in
  let lb = if Topology.same_host topo 0 2 then 2 else 1 in
  let backend = if lb = 2 then 1 else 2 in
  let g = hyp.Hypervisor.guest in
  let op = Machine.op machine in
  let lb_op = op Other "cluster.lb"
  and backend_op = op Io "cluster.backend" in
  let pkts = ref [] in
  (* Deliveries are timed callbacks; the LB and backend charge guest
     work, so each frame they take is served by a forked process. *)
  Topology.set_handler topo ~vm:lb (fun ~src ~dst pkt ->
      if dst = lb then
        Sim.fork sim ~name:"chain-lb" (fun () ->
            if src = client then begin
              Packet.stamp pkt "lb_recv";
              Machine.spend lb_op (lb_cycles g);
              Packet.stamp pkt "lb_send";
              Topology.send topo ~src:lb ~dst:backend pkt
            end
            else begin
              Packet.stamp pkt "lb_ret_recv";
              Machine.spend lb_op (lb_cycles g);
              Packet.stamp pkt "lb_ret_send";
              Topology.send topo ~src:lb ~dst:client pkt
            end));
  Topology.set_handler topo ~vm:backend (fun ~src:_ ~dst pkt ->
      if dst = backend then
        Sim.fork sim ~name:"chain-backend" (fun () ->
            Packet.stamp pkt "backend_recv";
            Machine.spend backend_op
              (Hypervisor.request_service_cycles hyp);
            Packet.stamp pkt "backend_send";
            Topology.send topo ~src:backend ~dst:lb pkt));
  let done_mb = Sim.Mailbox.create ~name:"chain-done" sim in
  Topology.set_handler topo ~vm:client (fun ~src:_ ~dst pkt ->
      if dst = client then begin
        Packet.stamp pkt "client_recv";
        Sim.Mailbox.send done_mb pkt
      end);
  Sim.spawn sim ~name:"cluster-chain" (fun () ->
      (* Request 0 is an unmeasured warmup: its floods converge the MAC
         tables so measured hops never pay flood copies. *)
      for id = 0 to requests do
        let pkt = Packet.create ~payload ~id () in
        Packet.stamp pkt "client_send";
        Topology.send topo ~src:client ~dst:lb pkt;
        let pkt = Sim.Mailbox.recv done_mb in
        if id > 0 then pkts := pkt :: !pkts
      done);
  Sim.run sim;
  let pkts = List.rev !pkts in
  let mean_hop (a, b) =
    let vals =
      List.filter_map
        (fun p ->
          Option.map (Machine.elapsed_us machine) (Packet.interval p a b))
        pkts
    in
    match vals with
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  let totals =
    List.filter_map
      (fun p ->
        Option.map (Machine.elapsed_us machine)
          (Packet.interval p "client_send" "client_recv"))
      pkts
  in
  let summary = Summary.of_list totals in
  {
    chain_config = hyp.Hypervisor.name;
    chain_topology = Topology.spec_to_string spec;
    requests;
    hops = List.map (fun (name, stamps) -> (name, mean_hop stamps)) hop_names;
    mean_total_us = Summary.mean summary;
    p99_total_us = Summary.percentile summary 99.0;
    backend_cross_host = not (Topology.same_host topo lb backend);
  }

(* --- open-loop load generator ------------------------------------- *)

type load_point = {
  offered : float; (* fraction of aggregate native capacity *)
  offered_rps : float;
  completed : int;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  throughput_rps : float;
}

type loadgen_result = {
  lg_config : string;
  lg_topology : string;
  backends : int;
  lg_requests : int;
  points : load_point list;
}

let client_mac = 1_000_000

let default_loads = [ 0.2; 0.4; 0.6; 0.8; 0.95; 1.1 ]

let min_load = 1e-6
let max_load = 1e6

let run_loadgen ?(seed = 42) ?(requests = 1600) ?(payload = 128) ?(vms = 16)
    ?(spec = Topology.Pair) ?(loads = default_loads) ?uplink_gbps
    (hyp : Hypervisor.t) =
  if requests < 1 then invalid_arg "Cluster.run_loadgen: requests < 1";
  if vms < 1 then invalid_arg "Cluster.run_loadgen: vms < 1";
  List.iter
    (fun l ->
      if l <= 0.0 then invalid_arg "Cluster.run_loadgen: load <= 0";
      if not (l >= min_load && l <= max_load) then
        invalid_arg
          (Printf.sprintf "Cluster.run_loadgen: load outside %g..%g" min_load
             max_load))
    loads;
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  let hz = Machine.freq_ghz machine *. 1e9 in
  (* Generous egress queues: the memcached pool's backlog lives in the
     guest socket queues (the per-backend server resource below), not
     in tap drops — drop accounting is the matrix/test territory. Past
     the knee every in-flight reply funnels through the single client
     port, so its queue must hold the whole open-loop window. *)
  let topo =
    Topology.build
      ~queue_capacity:(max 1024 (2 * (requests + vms)))
      ?uplink_gbps ~vms hyp spec
  in
  let native_service =
    float_of_int (Kernel_costs.rr_server_cycles hyp.Hypervisor.guest)
  in
  let service = Hypervisor.request_service_cycles hyp in
  let servers =
    Array.init vms (fun i ->
        Sim.Resource.create ~name:(Printf.sprintf "backend-%d" i) sim
          ~capacity:1)
  in
  (* The unit-rate arrival skeleton is drawn once and rescaled per
     offered load: every point replays the same stream, so per-request
     waiting (FIFO stations with load-independent service) is pathwise
     monotone in the rate — the hockey-stick curve cannot jitter
     downward between sweep points. *)
  let rng = Rng.create ~seed in
  let unit_gaps = Array.init requests (fun _ -> Rng.exponential rng ~mean:1.0) in
  let completed = ref 0 in
  let target = ref 0 in
  let latencies = ref [] in
  let done_sig = Sim.Signal.create sim in
  let sw0 = Topology.switch topo 0 in
  let client_port =
    Switch.attach sw0 ~mac:client_mac ~deliver:(fun ~src:_ ~dst pkt ->
        if dst = client_mac then begin
          (if Packet.id pkt >= 0 then
             match Packet.timestamp pkt "req_send" with
             | Some t0 ->
                 latencies :=
                   Machine.elapsed_us machine
                     (Cycles.sub (Sim.current_time ()) t0)
                   :: !latencies
             | None -> ());
          incr completed;
          if !completed >= !target then Sim.Signal.notify done_sig
        end)
  in
  Array.iteri
    (fun b _ ->
      Topology.set_handler topo ~vm:b (fun ~src:_ ~dst pkt ->
          if dst = b then
            (* One serving VCPU per backend microVM: FIFO socket queue,
               deterministic per-request service. *)
            Sim.fork sim ~name:"loadgen-backend" (fun () ->
                Sim.Resource.acquire servers.(b);
                Sim.delay (Cycles.of_int service);
                Sim.Resource.release servers.(b);
                Topology.send_to_mac topo ~src:b ~dst_mac:client_mac pkt)))
    servers;
  let points = ref [] in
  Sim.spawn sim ~name:"cluster-loadgen" (fun () ->
      (* Warm up the MAC tables: one ping per backend, unmeasured, so
         the sweep itself never floods and every point sees identical
         forwarding state. *)
      completed := 0;
      target := vms;
      for b = 0 to vms - 1 do
        let pkt = Packet.create ~payload ~id:(-(b + 1)) () in
        Switch.transmit sw0 ~port:client_port ~dst:b pkt
      done;
      while !completed < !target do
        Sim.Signal.wait done_sig
      done;
      List.iter
        (fun load ->
          completed := 0;
          target := requests;
          latencies := [];
          let t0 = Sim.current_time () in
          for k = 0 to requests - 1 do
            let gap =
              int_of_float
                (unit_gaps.(k) *. native_service /. (load *. float_of_int vms))
            in
            Sim.delay (Cycles.of_int gap);
            let id = k + 1 in
            let b = k mod vms in
            (* Open loop: each request is its own process, so the
               generator never backpressures on a saturated pool. *)
            Sim.spawn_here ~name:"req" ~number:id (fun () ->
                let pkt = Packet.create ~payload ~id () in
                Packet.stamp pkt "req_send";
                Switch.transmit sw0 ~port:client_port ~dst:b pkt)
          done;
          while !completed < !target do
            Sim.Signal.wait done_sig
          done;
          let elapsed =
            Cycles.to_int (Cycles.sub (Sim.current_time ()) t0)
          in
          let summary = Summary.of_list !latencies in
          points :=
            {
              offered = load;
              offered_rps = load *. float_of_int vms *. hz /. native_service;
              completed = !completed;
              mean_us = Summary.mean summary;
              p50_us = Summary.median summary;
              p95_us = Summary.percentile summary 95.0;
              p99_us = Summary.percentile summary 99.0;
              throughput_rps =
                (if elapsed = 0 then 0.0
                 else
                   float_of_int !completed /. (float_of_int elapsed /. hz));
            }
            :: !points)
        loads);
  Sim.run sim;
  let points = List.rev !points in
  if List.length points <> List.length loads then
    failwith
      "Cluster.run_loadgen: sweep stalled (dropped frames?); raise the \
       queue capacity";
  {
    lg_config = hyp.Hypervisor.name;
    lg_topology = Topology.spec_to_string spec;
    backends = vms;
    lg_requests = requests;
    points;
  }
