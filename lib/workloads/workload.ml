type category = Cpu_bound | Io_latency | Io_throughput | Balanced

type t = {
  name : string;
  description : string;
  category : category;
  unit_name : string;
  total_cycles : float;
  irq_side_cycles : float;
  device_irqs : float;
  tx_completion_events : float;
  packets_rx : float;
  packets_tx : float;
  bytes_rx : float;
  bytes_tx : float;
  kicks : float;
  vipis : float;
}

let kernbench =
  {
    name = "Kernbench";
    description =
      "Compilation of the Linux 3.17.0 kernel using the allnoconfig for \
       ARM using GCC 4.8.2.";
    category = Cpu_bound;
    unit_name = "kernel build";
    total_cycles = 576e9;
    irq_side_cycles = 6e9;
    device_irqs = 20_000.0;
    tx_completion_events = 0.0;
    packets_rx = 0.0;
    packets_tx = 0.0;
    bytes_rx = 0.0;
    bytes_tx = 0.0;
    kicks = 20_000.0 (* block I/O submissions *);
    vipis = 1.2e6 (* make -j fork/exit rescheduling *);
  }

let hackbench =
  {
    name = "Hackbench";
    description =
      "hackbench using Unix domain sockets and 100 process groups \
       running with 500 loops.";
    category = Cpu_bound;
    unit_name = "run (100 groups x 500 loops)";
    total_cycles = 96e9;
    irq_side_cycles = 2e9;
    device_irqs = 2_000.0;
    tx_completion_events = 0.0;
    packets_rx = 0.0;
    packets_tx = 0.0;
    bytes_rx = 0.0;
    bytes_tx = 0.0;
    kicks = 1_000.0;
    vipis = 0.83e6 (* sleeping/waking threads: constant rescheduling *);
  }

let specjvm =
  {
    name = "SPECjvm2008";
    description =
      "SPECjvm2008 benchmark running several real life applications and \
       benchmarks specifically chosen to benchmark the performance of \
       the Java Runtime Environment (Linaro AArch64 OpenJDK).";
    category = Cpu_bound;
    unit_name = "composite run";
    total_cycles = 576e9;
    irq_side_cycles = 2e9;
    device_irqs = 60_000.0 (* timer ticks *);
    tx_completion_events = 0.0;
    packets_rx = 0.0;
    packets_tx = 0.0;
    bytes_rx = 0.0;
    bytes_tx = 0.0;
    kicks = 1_000.0;
    vipis = 0.3e6 (* GC and JIT thread wakeups *);
  }

let apache =
  {
    name = "Apache";
    description =
      "Apache v2.4.7 Web server running ApacheBench v2.3 on the remote \
       client, measuring requests per second serving the 41 KB index \
       file of the GCC 4.4 manual with 100 concurrent requests.";
    category = Io_throughput;
    unit_name = "1000 requests";
    total_cycles = 1.538e9;
    irq_side_cycles = 0.28e9;
    device_irqs = 24_000.0 (* 24 NIC interrupts per request, coalesced *);
    tx_completion_events = 32_000.0 (* one per transmitted segment *);
    packets_rx = 10_000.0;
    packets_tx = 32_000.0 (* 41 KB = ~28 MTU segments + handshake *);
    bytes_rx = 0.5e6;
    bytes_tx = 42e6;
    kicks = 8_000.0;
    vipis = 2_000.0;
  }

let memcached =
  {
    name = "Memcached";
    description =
      "memcached v1.4.14 using the memtier benchmark v1.2.3 with its \
       default parameters.";
    category = Io_throughput;
    unit_name = "10k operations";
    total_cycles = 0.8e9;
    irq_side_cycles = 0.2e9;
    device_irqs = 4_500.0 (* heavy NAPI coalescing at high op rate *);
    tx_completion_events = 2_000.0 (* responses batch per event *);
    packets_rx = 10_000.0;
    packets_tx = 10_000.0;
    bytes_rx = 2e6;
    bytes_tx = 2e6;
    kicks = 2_000.0;
    vipis = 500.0;
  }

let mysql =
  {
    name = "MySQL";
    description =
      "MySQL v14.14 (distrib 5.5.41) running SysBench v0.4.12 using the \
       default configuration with 200 parallel transactions.";
    category = Balanced;
    unit_name = "1000 transactions";
    total_cycles = 4e9;
    irq_side_cycles = 0.9e9;
    device_irqs = 16_000.0;
    tx_completion_events = 2_000.0;
    packets_rx = 4_000.0;
    packets_tx = 4_000.0;
    bytes_rx = 1e6;
    bytes_tx = 1e6;
    kicks = 8_000.0;
    vipis = 4_000.0;
  }

let all = [ kernbench; hackbench; specjvm; apache; memcached; mysql ]

let find name =
  List.find_opt (fun w -> String.lowercase_ascii w.name = String.lowercase_ascii name) all
