type t = {
  notify_latency : int;
  kick_guest_cpu : int;
  irq_delivery_latency : int;
  irq_delivery_guest_cpu : int;
  virq_completion : int;
  vipi_guest_cpu : int;
  backend_cpu_per_packet : int;
  rx_copy_per_byte : float;
  tx_copy_per_byte : float;
  rx_grant_per_packet : int;
  tx_grant_per_packet : int;
  guest_rx_per_packet : int;
  guest_tx_per_packet : int;
  irq_rate_factor : float;
  phys_rx_extra_latency : int;
  zero_copy : bool;
}

let native =
  {
    notify_latency = 0;
    kick_guest_cpu = 0;
    irq_delivery_latency = 0;
    irq_delivery_guest_cpu = 0;
    virq_completion = 0;
    vipi_guest_cpu = 0;
    backend_cpu_per_packet = 0;
    rx_copy_per_byte = 0.0;
    tx_copy_per_byte = 0.0;
    rx_grant_per_packet = 0;
    tx_grant_per_packet = 0;
    guest_rx_per_packet = 0;
    guest_tx_per_packet = 0;
    irq_rate_factor = 1.0;
    phys_rx_extra_latency = 0;
    zero_copy = true;
  }

let copy_cycles per_byte bytes =
  int_of_float (Float.round (per_byte *. float_of_int bytes))

let total_rx_packet_cost t ~bytes =
  t.backend_cpu_per_packet + t.rx_grant_per_packet
  + copy_cycles t.rx_copy_per_byte bytes

let total_tx_packet_cost t ~bytes =
  t.backend_cpu_per_packet + t.tx_grant_per_packet
  + copy_cycles t.tx_copy_per_byte bytes
