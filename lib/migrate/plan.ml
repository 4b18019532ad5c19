type t = {
  pages : int;
  page_kb : int;
  vcpus : int;
  hot_pages : int;
  hot_fraction : float;
  writes_per_txn : int;
  txn_rate_hz : float;
  service_cycles : int;
  max_rounds : int;
  downtime_target_us : float;
  bandwidth_gbps : float;
  batch_pages : int;
  warmup_us : float;
  tail_us : float;
  seed : int;
}

let default =
  {
    pages = 4096;
    page_kb = 4;
    vcpus = 4;
    hot_pages = 512;
    hot_fraction = 0.9;
    writes_per_txn = 8;
    txn_rate_hz = 20_000.0;
    service_cycles = 20_000;
    max_rounds = 30;
    downtime_target_us = 300.0;
    bandwidth_gbps = 10.0;
    batch_pages = 64;
    warmup_us = 2_000.0;
    tail_us = 1_000.0;
    seed = 42;
  }

let page_bytes t = t.page_kb * 1024

let max_pages = 1 lsl 20
let max_page_kb = 1024
let max_vcpus = 4096
let max_txn_rate_hz = 1_000_000.0
let min_bandwidth_gbps = 0.1

let validate t =
  List.iter
    (fun (name, x) ->
      if not (Float.is_finite x) then
        invalid_arg (Printf.sprintf "Plan: %s must be finite" name))
    [
      ("hot_fraction", t.hot_fraction);
      ("txn_rate_hz", t.txn_rate_hz);
      ("downtime_target_us", t.downtime_target_us);
      ("bandwidth_gbps", t.bandwidth_gbps);
      ("warmup_us", t.warmup_us);
      ("tail_us", t.tail_us);
    ];
  if t.pages <= 0 then invalid_arg "Plan: pages must be positive";
  if t.pages > max_pages then
    invalid_arg (Printf.sprintf "Plan: pages must be at most %d" max_pages);
  if t.page_kb <= 0 then invalid_arg "Plan: page_kb must be positive";
  if t.page_kb > max_page_kb then
    invalid_arg (Printf.sprintf "Plan: page_kb must be at most %d" max_page_kb);
  if t.vcpus <= 0 then invalid_arg "Plan: vcpus must be positive";
  if t.vcpus > max_vcpus then
    invalid_arg (Printf.sprintf "Plan: vcpus must be at most %d" max_vcpus);
  if t.hot_pages < 0 || t.hot_pages > t.pages then
    invalid_arg "Plan: hot_pages out of range";
  if t.hot_fraction < 0.0 || t.hot_fraction > 1.0 then
    invalid_arg "Plan: hot_fraction out of [0,1]";
  if t.writes_per_txn < 0 then invalid_arg "Plan: negative writes_per_txn";
  if t.txn_rate_hz < 0.0 then invalid_arg "Plan: negative txn_rate_hz";
  if t.txn_rate_hz > max_txn_rate_hz then
    invalid_arg
      (Printf.sprintf "Plan: txn_rate_hz must be at most %.0f" max_txn_rate_hz);
  if t.service_cycles < 0 then invalid_arg "Plan: negative service_cycles";
  if t.max_rounds < 1 then invalid_arg "Plan: max_rounds must be >= 1";
  if t.downtime_target_us <= 0.0 then
    invalid_arg "Plan: downtime_target_us must be positive";
  if t.bandwidth_gbps < min_bandwidth_gbps then
    invalid_arg
      (Printf.sprintf "Plan: bandwidth_gbps must be at least %g"
         min_bandwidth_gbps);
  if t.batch_pages <= 0 then invalid_arg "Plan: batch_pages must be positive";
  if t.warmup_us < 0.0 then invalid_arg "Plan: negative warmup_us";
  if t.tail_us < 0.0 then invalid_arg "Plan: negative tail_us"

let pp ppf t =
  Format.fprintf ppf
    "%d pages x %d KiB (%d hot, P(hot)=%.2f), %d VCPUs, %.0f txn/s x %d \
     writes, %.1f Gb/s link, target %.0f us, <= %d rounds, seed %d"
    t.pages t.page_kb t.hot_pages t.hot_fraction t.vcpus t.txn_rate_hz
    t.writes_per_txn t.bandwidth_gbps t.downtime_target_us t.max_rounds t.seed
