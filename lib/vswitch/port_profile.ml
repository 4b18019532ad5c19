module Hypervisor = Armvirt_hypervisor.Hypervisor
module Io_profile = Armvirt_hypervisor.Io_profile

(* Software-switch forwarding work per frame (lookup + header rewrite +
   queue handoff), independent of the hypervisor: even a native bridge
   is not free. ~125 ns at 2.4 GHz, in line with measured OVS/Linux
   bridge per-packet costs. *)
let default_fabric_per_packet = 300

type t = {
  name : string;
  fabric_per_packet : int;
  ingress_per_packet : int;
  ingress_per_byte : float;
  egress_per_packet : int;
  egress_per_byte : float;
  notify_latency : int;
  irq_delivery_latency : int;
  zero_copy : bool;
}

let copy_cycles per_byte bytes =
  int_of_float (Float.round (per_byte *. float_of_int bytes))

let of_hypervisor (hyp : Hypervisor.t) =
  let p = hyp.Hypervisor.io_profile in
  {
    name = hyp.Hypervisor.name;
    fabric_per_packet = default_fabric_per_packet;
    ingress_per_packet =
      p.Io_profile.backend_cpu_per_packet + p.Io_profile.tx_grant_per_packet;
    ingress_per_byte = p.Io_profile.tx_copy_per_byte;
    egress_per_packet =
      p.Io_profile.backend_cpu_per_packet + p.Io_profile.rx_grant_per_packet;
    egress_per_byte = p.Io_profile.rx_copy_per_byte;
    notify_latency = p.Io_profile.notify_latency;
    irq_delivery_latency = p.Io_profile.irq_delivery_latency;
    zero_copy = p.Io_profile.zero_copy;
  }

let ingress_cost t ~bytes =
  if bytes < 0 then invalid_arg "Port_profile.ingress_cost: negative size";
  t.ingress_per_packet + t.fabric_per_packet
  + copy_cycles t.ingress_per_byte bytes

let egress_cost t ~bytes =
  if bytes < 0 then invalid_arg "Port_profile.egress_cost: negative size";
  t.egress_per_packet + copy_cycles t.egress_per_byte bytes
