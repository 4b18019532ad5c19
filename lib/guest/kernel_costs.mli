(** Path lengths of the guest/host Linux kernel (4.0-rc4 era, as in the
    paper's software stack).

    These costs are identical native and virtualized — the paper's VMs run
    "the same Linux 4.0-rc4 kernel and software configuration for all
    machines" (section III) — so they form the baseline that
    virtualization overhead is added on top of. Values are calibrated so
    the native Netperf TCP_RR transaction of Table V (41.8 μs end-to-end,
    14.5 μs server receive-to-send at 2.4 GHz) is reproduced. *)

type t = {
  syscall : int;  (** Syscall entry/exit pair. *)
  irq_top_half : int;  (** Device ISR acknowledging the NIC. *)
  softirq_rx : int;  (** NAPI poll + netif_receive_skb, per packet. *)
  tcp_rx : int;  (** TCP/IP receive protocol processing, per packet. *)
  tcp_tx : int;  (** Transmit protocol processing + qdisc, per packet. *)
  socket_wakeup : int;
      (** Waking the blocked server process and switching to it. *)
  driver_tx : int;  (** NIC driver descriptor setup, per packet. *)
  app_rr_process : int;
      (** Netperf request-response userspace work per transaction. *)
  idle_wakeup : int;  (** Leaving the idle loop on interrupt arrival. *)
  context_switch : int;  (** Process context switch. *)
  tso_autosizing_bug : bool;
      (** The Linux 4.0-rc1 "TCP: refine TSO autosizing" regression that
          throttled Xen's transmit path in TCP_MAERTS (section V,
          reference 19). Shrinks effective transmit batching. *)
}

val defaults : t
(** The calibrated Linux 4.0-rc4 model, with the TSO autosizing bug
    {e present} — the kernel the paper measured. *)

val rx_path : t -> int
(** Interrupt to application wakeup for one packet:
    idle_wakeup + irq_top_half + softirq_rx + tcp_rx + socket_wakeup. *)

val tx_path : t -> int
(** Application send to wire for one packet:
    syscall + tcp_tx + driver_tx. *)

val rr_server_cycles : t -> int
(** Full server-side receive-to-send work for one TCP_RR transaction:
    rx_path + app_rr_process + tx_path. Table V's native
    "recv to send" (14.5 μs ≈ 34,800 cycles at 2.4 GHz). *)

val tx_batch : t -> mtu_packets:int -> int
(** Effective transmit batching (packets per virtqueue/ring kick) for a
    bulk stream: large when TSO/GSO aggregates, collapsed to a small
    window by the autosizing bug. *)
