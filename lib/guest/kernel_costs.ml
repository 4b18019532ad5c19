type t = {
  syscall : int;
  irq_top_half : int;
  softirq_rx : int;
  tcp_rx : int;
  tcp_tx : int;
  socket_wakeup : int;
  driver_tx : int;
  app_rr_process : int;
  idle_wakeup : int;
  context_switch : int;
  tso_autosizing_bug : bool;
}

(* Calibration: rr_server_cycles = idle_wakeup + irq_top_half + softirq_rx
   + tcp_rx + socket_wakeup + app_rr_process + syscall + tcp_tx + driver_tx
   = 34,800 cycles = 14.5 us at 2.4 GHz (Table V, native recv-to-send). *)
let defaults =
  {
    syscall = 1500;
    irq_top_half = 2200;
    softirq_rx = 5600;
    tcp_rx = 5800;
    tcp_tx = 6200;
    socket_wakeup = 3800;
    driver_tx = 2600;
    app_rr_process = 5700;
    idle_wakeup = 1400;
    context_switch = 1400;
    tso_autosizing_bug = true;
  }

let rx_path t =
  t.idle_wakeup + t.irq_top_half + t.softirq_rx + t.tcp_rx + t.socket_wakeup

let tx_path t = t.syscall + t.tcp_tx + t.driver_tx
let rr_server_cycles t = rx_path t + t.app_rr_process + tx_path t

let tx_batch t ~mtu_packets =
  if mtu_packets < 1 then invalid_arg "Kernel_costs.tx_batch: < 1 packet";
  if t.tso_autosizing_bug then Stdlib.min 8 mtu_packets
  else Stdlib.min 42 mtu_packets
