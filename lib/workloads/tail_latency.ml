module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Rng = Armvirt_engine.Rng
module Summary = Armvirt_stats.Summary
module Machine = Armvirt_arch.Machine
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Kernel_costs = Armvirt_guest.Kernel_costs

type result = {
  config : string;
  offered_load : float;
  completed : int;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  utilization : float;
}

let run ?(seed = 42) ?(requests = 2000) (hyp : Hypervisor.t) ~load =
  if load <= 0.0 || load >= 1.0 then
    invalid_arg "Tail_latency.run: load must be in (0, 1)";
  if requests < 1 then invalid_arg "Tail_latency.run: requests < 1";
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  let rng = Rng.create ~seed in
  let native_service =
    Kernel_costs.rr_server_cycles hyp.Hypervisor.guest
  in
  (* Server-side cost on the bottleneck VCPU, and the fixed delivery
     latency outside it. *)
  let service = Hypervisor.request_service_cycles hyp in
  let fixed = Hypervisor.request_fixed_latency hyp in
  (* Arrival rate: [load] of *native* capacity. *)
  let mean_interarrival = float_of_int native_service /. load in
  let server = Sim.Resource.create ~name:"server" sim ~capacity:1 in
  let latencies = ref [] in
  let busy = ref 0 in
  let last_arrival_done = ref Cycles.zero in
  Sim.spawn sim ~name:"arrival-generator" (fun () ->
      for i = 1 to requests do
        let gap =
          Cycles.of_int
            (int_of_float (Rng.exponential rng ~mean:mean_interarrival))
        in
        Sim.delay gap;
        Sim.spawn_here ~name:"req" ~number:i (fun () ->
            let arrived = Sim.current_time () in
            (* Delivery into the VM. *)
            Sim.delay (Cycles.of_int (fixed / 2));
            Sim.Resource.acquire server;
            Sim.delay (Cycles.of_int service);
            busy := !busy + service;
            Sim.Resource.release server;
            (* Response out of the VM. *)
            Sim.delay (Cycles.of_int (fixed - (fixed / 2)));
            let done_at = Sim.current_time () in
            last_arrival_done := Cycles.max !last_arrival_done done_at;
            latencies :=
              Machine.elapsed_us machine (Cycles.sub done_at arrived)
              :: !latencies)
      done);
  Sim.run sim;
  let summary = Summary.of_list !latencies in
  let span = Cycles.to_int !last_arrival_done in
  {
    config = hyp.Hypervisor.name;
    offered_load = load;
    completed = List.length !latencies;
    mean_us = Summary.mean summary;
    p50_us = Summary.median summary;
    p95_us = Summary.percentile summary 95.0;
    p99_us = Summary.percentile summary 99.0;
    utilization =
      (if span = 0 then 0.0 else float_of_int !busy /. float_of_int span);
  }
