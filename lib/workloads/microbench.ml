module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Summary = Armvirt_stats.Summary
module Cycle_counter = Armvirt_stats.Cycle_counter
module Machine = Armvirt_arch.Machine
module Hypervisor = Armvirt_hypervisor.Hypervisor

type results = {
  hypercall : Summary.t;
  interrupt_controller_trap : Summary.t;
  virtual_ipi : Summary.t;
  virtual_irq_completion : Summary.t;
  vm_switch : Summary.t;
  io_latency_out : Summary.t;
  io_latency_in : Summary.t;
}

let run ?(iterations = 32) (hyp : Hypervisor.t) =
  if iterations < 1 then invalid_arg "Microbench.run: iterations < 1";
  let sim = Machine.sim hyp.Hypervisor.machine in
  let counter =
    Cycle_counter.create ~barrier_cost:hyp.Hypervisor.barrier_cost
  in
  let timed op =
    List.init iterations (fun _ -> Cycle_counter.measure counter op)
  in
  let latency op = List.init iterations (fun _ -> op ()) in
  let collected = ref None in
  Sim.spawn sim ~name:"microbench-driver" (fun () ->
      let hypercall = timed hyp.Hypervisor.hypercall in
      let ict = timed hyp.Hypervisor.interrupt_controller_trap in
      let vipi = latency hyp.Hypervisor.virtual_ipi in
      let virq = timed hyp.Hypervisor.virtual_irq_completion in
      let vm_switch = timed hyp.Hypervisor.vm_switch in
      let io_out = latency hyp.Hypervisor.io_latency_out in
      let io_in = latency hyp.Hypervisor.io_latency_in in
      collected :=
        Some
          {
            hypercall = Summary.of_cycles hypercall;
            interrupt_controller_trap = Summary.of_cycles ict;
            virtual_ipi = Summary.of_cycles vipi;
            virtual_irq_completion = Summary.of_cycles virq;
            vm_switch = Summary.of_cycles vm_switch;
            io_latency_out = Summary.of_cycles io_out;
            io_latency_in = Summary.of_cycles io_in;
          });
  Sim.run sim;
  match !collected with
  | Some r -> r
  | None -> failwith "Microbench.run: driver process did not complete"

let median s = Cycles.to_int (Summary.median_cycles s)

let to_rows r =
  [
    ("Hypercall", median r.hypercall);
    ("Interrupt Controller Trap", median r.interrupt_controller_trap);
    ("Virtual IPI", median r.virtual_ipi);
    ("Virtual IRQ Completion", median r.virtual_irq_completion);
    ("VM Switch", median r.vm_switch);
    ("I/O Latency Out", median r.io_latency_out);
    ("I/O Latency In", median r.io_latency_in);
  ]
