module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Summary = Armvirt_stats.Summary
module Cycle_counter = Armvirt_stats.Cycle_counter
module Machine = Armvirt_arch.Machine
module Hypervisor = Armvirt_hypervisor.Hypervisor
module W = Armvirt_workloads
module Paper_data = Armvirt_core.Paper_data

type direction = Min | Max

type t = {
  name : string;
  doc : string;
  unit_ : string;
  direction : direction;
  eval : Config.t -> float;
}

let iterations = 9

(* Run one synchronous microbenchmark op on a fresh machine built for
   the point and return the median cycle count. *)
let median_sync op config =
  let hyp = Config.hypervisor config in
  let sim = Machine.sim hyp.Hypervisor.machine in
  let counter =
    Cycle_counter.create ~barrier_cost:hyp.Hypervisor.barrier_cost
  in
  let collected = ref [] in
  Sim.spawn sim ~name:"explore-objective" (fun () ->
      collected :=
        List.init iterations (fun _ ->
            Cycle_counter.measure counter (op hyp)));
  Sim.run sim;
  float_of_int (Cycles.to_int (Summary.median_cycles (Summary.of_cycles !collected)))

(* Same for the asynchronous ops, which report their own latency. *)
let median_latency op config =
  let hyp = Config.hypervisor config in
  let sim = Machine.sim hyp.Hypervisor.machine in
  let collected = ref [] in
  Sim.spawn sim ~name:"explore-objective" (fun () ->
      collected := List.init iterations (fun _ -> op hyp ()));
  Sim.run sim;
  float_of_int (Cycles.to_int (Summary.median_cycles (Summary.of_cycles !collected)))

let table2_column (config : Config.t) (q : Paper_data.quad) =
  match config.Config.hyp with
  | Config.Kvm -> float_of_int q.Paper_data.kvm_arm
  | Config.Xen -> float_of_int q.Paper_data.xen_arm
  | Config.Native ->
      invalid_arg "Objective: paper-error objectives need hyp=kvm or hyp=xen"

let pct_err ~model ~target = Float.abs (model -. target) /. target *. 100.

let hypercall_cycles config =
  median_sync (fun h -> h.Hypervisor.hypercall) config

module Fleet = Armvirt_fleet

let table2_row name =
  match List.assoc_opt name Paper_data.table2 with
  | Some q -> q
  | None -> invalid_arg (Printf.sprintf "Objective: no Table II row %S" name)

let all =
  [
    {
      name = "hypercall";
      doc = "median no-op hypercall round trip (Table II row 1)";
      unit_ = "cycles";
      direction = Min;
      eval = hypercall_cycles;
    };
    {
      name = "ict";
      doc = "median trapped interrupt-controller access";
      unit_ = "cycles";
      direction = Min;
      eval = median_sync (fun h -> h.Hypervisor.interrupt_controller_trap);
    };
    {
      name = "virq-complete";
      doc = "median trap-free virtual interrupt completion";
      unit_ = "cycles";
      direction = Min;
      eval = median_sync (fun h -> h.Hypervisor.virtual_irq_completion);
    };
    {
      name = "vm-switch";
      doc = "median same-core VM-to-VM switch";
      unit_ = "cycles";
      direction = Min;
      eval = median_sync (fun h -> h.Hypervisor.vm_switch);
    };
    {
      name = "io-out";
      doc = "median guest kick to backend notification latency";
      unit_ = "cycles";
      direction = Min;
      eval = median_latency (fun h -> h.Hypervisor.io_latency_out);
    };
    {
      name = "io-in";
      doc = "median backend signal to guest handler latency";
      unit_ = "cycles";
      direction = Min;
      eval = median_latency (fun h -> h.Hypervisor.io_latency_in);
    };
    {
      name = "rr-rate";
      doc = "Netperf TCP_RR transaction rate";
      unit_ = "trans/s";
      direction = Max;
      eval =
        (fun c ->
          (W.Netperf.run_tcp_rr ~transactions:100 (Config.hypervisor c))
            .W.Netperf.trans_per_sec);
    };
    {
      name = "rr-us";
      doc = "Netperf TCP_RR time per transaction";
      unit_ = "us";
      direction = Min;
      eval =
        (fun c ->
          (W.Netperf.run_tcp_rr ~transactions:100 (Config.hypervisor c))
            .W.Netperf.time_per_trans_us);
    };
    {
      name = "maerts-gbps";
      doc = "Netperf TCP_MAERTS (VM transmit) throughput";
      unit_ = "Gbps";
      direction = Max;
      eval =
        (fun c -> (W.Netperf.tcp_maerts (Config.hypervisor c)).W.Netperf.gbps);
    };
    {
      name = "stream-gbps";
      doc = "Netperf TCP_STREAM (VM receive) throughput";
      unit_ = "Gbps";
      direction = Max;
      eval =
        (fun c -> (W.Netperf.tcp_stream (Config.hypervisor c)).W.Netperf.gbps);
    };
    {
      name = "tail-p99";
      doc = "open-loop p99 latency at 0.8 native load";
      unit_ = "us";
      direction = Min;
      eval =
        (fun c ->
          (W.Tail_latency.run ~seed:42 ~requests:600 (Config.hypervisor c)
             ~load:0.8)
            .W.Tail_latency.p99_us);
    };
    {
      name = "lr-overhead";
      doc =
        "maintenance overhead per interrupt at the point's lr_count \
         (burst 12, 400 bursts)";
      unit_ = "cycles/irq";
      direction = Min;
      eval =
        (fun c ->
          (W.Lr_sensitivity.run (Config.hypervisor c)
             ~num_lrs:c.Config.num_lrs ~burst_size:12 ~bursts:400)
            .W.Lr_sensitivity.cycles_per_interrupt);
    };
    {
      name = "mig-downtime";
      doc = "live-migration blackout under the point's mig.* scenario";
      unit_ = "us";
      direction = Min;
      eval =
        (fun c ->
          (W.Migration.run ~plan:c.Config.migration (Config.hypervisor c))
            .W.Migration.downtime_us);
    };
    {
      name = "mig-total";
      doc = "live-migration total time, first protect to resume";
      unit_ = "us";
      direction = Min;
      eval =
        (fun c ->
          (W.Migration.run ~plan:c.Config.migration (Config.hypervisor c))
            .W.Migration.total_ms
          *. 1e3);
    };
    {
      name = "mig-resent";
      doc = "pages shipped more than once during pre-copy";
      unit_ = "pages";
      direction = Min;
      eval =
        (fun c ->
          float_of_int
            (W.Migration.run ~plan:c.Config.migration (Config.hypervisor c))
              .W.Migration.pages_resent);
    };
    {
      name = "mig-p99-degradation";
      doc = "worst pre-copy round request p99 over the baseline p99";
      unit_ = "x";
      direction = Min;
      eval =
        (fun c ->
          (W.Migration.run ~plan:c.Config.migration (Config.hypervisor c))
            .W.Migration.p99_degradation);
    };
    {
      name = "fleet-ready";
      doc =
        "boot-storm time to all guests ready at the point's fleet.* \
         scenario";
      unit_ = "ms";
      direction = Min;
      eval =
        (fun c ->
          (Fleet.Scenario.boot_storm ~seed:42 (Config.hypervisor c)
             (Config.fleet_descriptor c))
            .Fleet.Scenario.time_to_ready_ms);
    };
    {
      name = "fleet-p99";
      doc =
        "noisy-neighbor victim request p99 at the point's fleet.* \
         scenario";
      unit_ = "us";
      direction = Min;
      eval =
        (fun c ->
          (Fleet.Scenario.noisy_neighbor ~seed:42 (Config.hypervisor c)
             (Config.fleet_descriptor c))
            .Fleet.Scenario.p99_us);
    };
    {
      name = "cluster-pair-gbps";
      doc =
        "same-host VM-to-VM throughput (pairwise matrix mean) at the \
         point's cluster.*/net.* scenario";
      unit_ = "Gbps";
      direction = Max;
      eval =
        (fun c ->
          let n = c.Config.cluster in
          W.Cluster.matrix_mean ~cross:false
            (W.Cluster.run_matrix ~vms:n.Config.cluster_vms
               ~queue_capacity:n.Config.net_queue
               ~uplink_gbps:n.Config.net_uplink_gbps (Config.hypervisor c)));
    };
    {
      name = "cluster-xhost-gbps";
      doc = "cross-host VM-to-VM throughput over the cluster uplinks";
      unit_ = "Gbps";
      direction = Max;
      eval =
        (fun c ->
          let n = c.Config.cluster in
          W.Cluster.matrix_mean ~cross:true
            (W.Cluster.run_matrix ~vms:n.Config.cluster_vms
               ~queue_capacity:n.Config.net_queue
               ~uplink_gbps:n.Config.net_uplink_gbps (Config.hypervisor c)));
    };
    {
      name = "chain-p99";
      doc =
        "client -> LB -> backend service-chain p99 end-to-end latency \
         across the cluster pair";
      unit_ = "us";
      direction = Min;
      eval =
        (fun c ->
          (W.Cluster.run_chain ~requests:100
             ~uplink_gbps:c.Config.cluster.Config.net_uplink_gbps
             (Config.hypervisor c))
            .W.Cluster.p99_total_us);
    };
    {
      name = "cluster-p99";
      doc =
        "open-loop backend-pool p99 at the point's cluster.load offered \
         load, through the switch fabric";
      unit_ = "us";
      direction = Min;
      eval =
        (fun c ->
          let n = c.Config.cluster in
          let r =
            W.Cluster.run_loadgen ~seed:42 ~requests:600
              ~vms:n.Config.cluster_vms
              ~loads:[ n.Config.cluster_load ]
              ~uplink_gbps:n.Config.net_uplink_gbps (Config.hypervisor c)
          in
          match r.W.Cluster.points with
          | [ p ] -> p.W.Cluster.p99_us
          | _ -> invalid_arg "Objective: cluster-p99 expects one point");
    };
    {
      name = "hypercall-err";
      doc = "percent error of the hypercall cost vs Table II";
      unit_ = "%";
      direction = Min;
      eval =
        (fun c ->
          let target = table2_column c (table2_row "Hypercall") in
          pct_err ~model:(hypercall_cycles c) ~target);
    };
    {
      name = "table2-err";
      doc =
        "mean percent error over all seven Table II microbenchmarks \
         vs the paper's column for the point's hypervisor";
      unit_ = "%";
      direction = Min;
      eval =
        (fun c ->
          let r = W.Microbench.run ~iterations (Config.hypervisor c) in
          let errs =
            List.map
              (fun (name, cycles) ->
                let target = table2_column c (table2_row name) in
                pct_err ~model:(float_of_int cycles) ~target)
              (W.Microbench.to_rows r)
          in
          List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs));
    };
  ]

let names = List.map (fun o -> o.name) all

let find name =
  match List.find_opt (fun o -> o.name = name) all with
  | Some o -> o
  | None ->
      invalid_arg
        (Printf.sprintf "Objective.find: %S (available: %s)" name
           (String.concat ", " names))
