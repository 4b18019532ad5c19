(* Tests for Armvirt_guest: the Linux path-length model. *)

module Kernel_costs = Armvirt_guest.Kernel_costs

let test_rr_calibration () =
  (* Table V anchor: the native server-side receive-to-send time is
     14.5 us at 2.4 GHz = 34,800 cycles. *)
  Alcotest.(check int) "recv-to-send = 34,800 cycles" 34_800
    (Kernel_costs.rr_server_cycles Kernel_costs.defaults)

let test_paths_compose () =
  let g = Kernel_costs.defaults in
  Alcotest.(check int) "rr = rx + app + tx"
    (Kernel_costs.rx_path g + g.Kernel_costs.app_rr_process
   + Kernel_costs.tx_path g)
    (Kernel_costs.rr_server_cycles g)

let test_rx_path_components () =
  let g = Kernel_costs.defaults in
  Alcotest.(check int) "rx path sum"
    (g.Kernel_costs.idle_wakeup + g.Kernel_costs.irq_top_half
   + g.Kernel_costs.softirq_rx + g.Kernel_costs.tcp_rx
   + g.Kernel_costs.socket_wakeup)
    (Kernel_costs.rx_path g)

let test_tso_bug_flag () =
  Alcotest.(check bool) "paper kernel has the bug" true
    Kernel_costs.defaults.Kernel_costs.tso_autosizing_bug

let test_tx_batch () =
  let buggy = Kernel_costs.defaults in
  let fixed = { buggy with Kernel_costs.tso_autosizing_bug = false } in
  Alcotest.(check int) "bug collapses batching" 8
    (Kernel_costs.tx_batch buggy ~mtu_packets:42);
  Alcotest.(check int) "fixed kernel streams full aggregates" 42
    (Kernel_costs.tx_batch fixed ~mtu_packets:42);
  Alcotest.(check int) "never exceeds available packets" 2
    (Kernel_costs.tx_batch fixed ~mtu_packets:2);
  Alcotest.check_raises "needs at least one packet"
    (Invalid_argument "Kernel_costs.tx_batch: < 1 packet") (fun () ->
      ignore (Kernel_costs.tx_batch buggy ~mtu_packets:0))

let () =
  Alcotest.run "guest"
    [
      ( "kernel_costs",
        [
          Alcotest.test_case "Table V calibration" `Quick test_rr_calibration;
          Alcotest.test_case "paths compose" `Quick test_paths_compose;
          Alcotest.test_case "rx path components" `Quick test_rx_path_components;
          Alcotest.test_case "TSO bug flag" `Quick test_tso_bug_flag;
          Alcotest.test_case "tx batching" `Quick test_tx_batch;
        ] );
    ]
