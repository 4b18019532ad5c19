(** The application benchmarks of Table IV, as event profiles.

    Each workload is characterised by what it does per unit of work on the
    paper's 4-VCPU/12 GB configuration: how many CPU cycles it burns, how
    much of that runs in interrupt context, and how many device
    interrupts, paravirtual kicks, virtual IPIs, packets and bytes it
    generates. The profiles are calibrated on the ARM platform
    (cycles at 2.4 GHz); overheads are ratios, so the same profiles drive
    the x86 comparison. Event counts follow each benchmark's published
    behaviour (e.g. Apache serves the 41 KB GCC manual page — dozens of
    transmit segments per request; Hackbench is virtually all scheduler
    IPIs). *)

type category = Cpu_bound | Io_latency | Io_throughput | Balanced

type t = {
  name : string;
  description : string;  (** Table IV's description. *)
  category : category;
  unit_name : string;  (** What one "unit of work" is. *)
  total_cycles : float;  (** CPU cycles per unit, all VCPUs. *)
  irq_side_cycles : float;
      (** Portion of [total_cycles] executed in interrupt/softirq
          context. Under virtualization all of it lands on VCPU0 —
          "Xen and KVM both handle all virtual interrupts using a single
          VCPU" (section V). *)
  device_irqs : float;  (** Device interrupts per unit (native). *)
  tx_completion_events : float;
      (** Transmit-completion notifications per unit raised by a
          copying (non-zero-copy) backend. Zero-copy backends suppress
          these by polling the ring. *)
  packets_rx : float;
  packets_tx : float;
  bytes_rx : float;
  bytes_tx : float;
  kicks : float;  (** Paravirtual device notifications per unit. *)
  vipis : float;  (** Rescheduling/wakeup IPIs per unit. *)
}

val kernbench : t
val apache : t
val memcached : t

val all : t list
(** The six modelled workloads above, in Figure 4 order. The three
    Netperf configurations complete Table IV and live in
    {!Netperf}. *)

val find : string -> t option
