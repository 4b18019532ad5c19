module Sim = Armvirt_engine.Sim
module Rng = Armvirt_engine.Rng
module Summary = Armvirt_stats.Summary
module Cycle_counter = Armvirt_stats.Cycle_counter
module Machine = Armvirt_arch.Machine
module Hypervisor = Armvirt_hypervisor.Hypervisor

type result = {
  config : string;
  samples : int;
  median : float;
  mean : float;
  stddev : float;
  coefficient_of_variation : float;
  worst : float;
}

let run ?(seed = 7) ?(iterations = 200) ~interference (hyp : Hypervisor.t) =
  if iterations < 1 then invalid_arg "Isolation.run: iterations < 1";
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  let rng = Rng.create ~seed in
  let counter =
    Cycle_counter.create ~barrier_cost:hyp.Hypervisor.barrier_cost
  in
  let interference_op = Machine.op machine Other "isolation.interference" in
  let collected = ref None in
  Sim.spawn sim ~name:"isolation-probe" (fun () ->
      let samples =
        List.init iterations (fun _ ->
            Cycle_counter.measure counter (fun () ->
                hyp.Hypervisor.hypercall ();
                if interference && Rng.float rng ~bound:1.0 < 0.3 then begin
                  (* A stray host IRQ or scheduler preemption lands inside
                     the measured window. *)
                  let stolen = 500 + Rng.int rng ~bound:14_500 in
                  Machine.spend interference_op stolen
                end))
      in
      collected := Some (Summary.of_cycles samples));
  Sim.run sim;
  let s = Option.get !collected in
  {
    config =
      Printf.sprintf "%s, %s" hyp.Hypervisor.name
        (if interference then "unisolated (stray IRQs + preemption)"
         else "pinned + isolated (paper discipline)");
    samples = Summary.count s;
    median = Summary.median s;
    mean = Summary.mean s;
    stddev = Summary.stddev s;
    coefficient_of_variation = Summary.coefficient_of_variation s;
    worst = Summary.max s;
  }
