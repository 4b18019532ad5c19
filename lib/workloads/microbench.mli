(** The seven microbenchmarks of Table I, runnable against any
    hypervisor model.

    Mirrors the paper's custom kernel driver (section IV): each benchmark
    is executed repeatedly from within the "VM", timestamps bracketed by
    barriers, synchronous operations timed on one VCPU and cross-CPU
    operations reported as send-to-handle latencies. Results are whole
    samples; Table II reports their medians. *)

type results = {
  hypercall : Armvirt_stats.Summary.t;
  interrupt_controller_trap : Armvirt_stats.Summary.t;
  virtual_ipi : Armvirt_stats.Summary.t;
  virtual_irq_completion : Armvirt_stats.Summary.t;
  vm_switch : Armvirt_stats.Summary.t;
  io_latency_out : Armvirt_stats.Summary.t;
  io_latency_in : Armvirt_stats.Summary.t;
}

val run :
  ?iterations:int -> Armvirt_hypervisor.Hypervisor.t -> results
(** Runs the full suite ([iterations] defaults to 32) inside a fresh
    simulation pass on the hypervisor's machine. *)

val to_rows : results -> (string * int) list
(** [(microbenchmark name, median cycles)] in Table II row order. *)
