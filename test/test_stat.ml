(* `armvirt stat` and its accounting layer: marker grammar, exit/entry
   pairing, lane attribution, renderer golden output, jobs-invariance,
   RFC 4180 CSV escaping, the trace-vs-analytic crosscheck, and the
   snapshot diff used for regression gating. *)

module Span = Armvirt_obs.Span
module Export = Armvirt_obs.Export
module Accounting = Armvirt_obs.Accounting
module Marker = Armvirt_obs.Marker
module Stat = Armvirt_obs.Stat
module Observe = Armvirt_core.Observe
module Runner = Armvirt_core.Runner
module Platform = Armvirt_core.Platform
module Stat_report = Armvirt_core.Stat_report
module W = Armvirt_workloads

(* --- marker grammar -------------------------------------------------- *)

let test_parse_label () =
  let exit_l = Marker.exit_name ~hyp:"kvm_arm" ~reason:"hvc" ~pcpu:4 in
  Alcotest.(check string) "exit label" "kvm_arm.exit/hvc/p4" exit_l;
  (match Accounting.parse_label exit_l with
  | Some (Accounting.Exit { hyp; reason; pcpu }) ->
      Alcotest.(check string) "hyp" "kvm_arm" hyp;
      Alcotest.(check string) "reason" "hvc" reason;
      Alcotest.(check int) "pcpu" 4 pcpu
  | _ -> Alcotest.fail "exit label did not parse as Exit");
  let entry_l = Marker.entry ~domid:0 ~hyp:"xen_arm" ~pcpu:5 () in
  Alcotest.(check string) "entry label" "xen_arm.entry/p5/d0" entry_l;
  (match Accounting.parse_label entry_l with
  | Some (Accounting.Entry { hyp; pcpu; domid }) ->
      Alcotest.(check string) "hyp" "xen_arm" hyp;
      Alcotest.(check int) "pcpu" 5 pcpu;
      Alcotest.(check (option int)) "domid" (Some 0) domid
  | _ -> Alcotest.fail "entry label did not parse as Entry");
  (match Accounting.parse_label "kvm_arm.vipi" with
  | Some (Accounting.Op { hyp; op }) ->
      Alcotest.(check string) "op hyp" "kvm_arm" hyp;
      Alcotest.(check string) "op name" "vipi" op
  | _ -> Alcotest.fail "dotted non-marker label should be an Op");
  Alcotest.(check bool)
    "dot-free labels are not markers" true
    (Accounting.parse_label "spawn" = None)

(* The builders concatenate instead of formatting; they must give the
   Printf bytes for every reason, direction and index a model can pass,
   and every exit/entry label must parse back to its parts. *)
let test_builders_match_printf () =
  let hyp = "kvm_arm" and switch = "tor" in
  let check_op label =
    match Accounting.parse_label label with
    | Some (Accounting.Op { hyp; op }) ->
        Alcotest.(check string) "op round-trip" label (hyp ^ "." ^ op)
    | _ -> Alcotest.failf "%s did not parse as an Op" label
  in
  Alcotest.(check string) "flood" (Printf.sprintf "vswitch.%s/flood" switch)
    (Marker.flood ~switch);
  check_op (Marker.flood ~switch);
  for n = 0 to 1023 do
    List.iter
      (fun reason ->
        let r = Marker.reason_to_string reason in
        let want = Printf.sprintf "%s.exit/%s/p%d" hyp r n in
        let exit_l = Marker.exit ~hyp ~reason ~pcpu:n in
        Alcotest.(check string) "exit" want exit_l;
        Alcotest.(check string) "exit_name" want
          (Marker.exit_name ~hyp ~reason:r ~pcpu:n);
        match Accounting.parse_label exit_l with
        | Some (Accounting.Exit e)
          when e.hyp = hyp && e.reason = r && e.pcpu = n ->
            ()
        | _ -> Alcotest.failf "%s did not round-trip" exit_l)
      Marker.all_reasons;
    let entry_l = Marker.entry ~hyp ~pcpu:n () in
    Alcotest.(check string) "entry"
      (Printf.sprintf "%s.entry/p%d" hyp n)
      entry_l;
    (match Accounting.parse_label entry_l with
    | Some (Accounting.Entry { hyp = h; pcpu; domid = None })
      when h = hyp && pcpu = n ->
        ()
    | _ -> Alcotest.failf "%s did not round-trip" entry_l);
    let domid = 1023 - n in
    let entry_d = Marker.entry ~domid ~hyp ~pcpu:n () in
    Alcotest.(check string) "entry with domid"
      (Printf.sprintf "%s.entry/p%d/d%d" hyp n domid)
      entry_d;
    (match Accounting.parse_label entry_d with
    | Some (Accounting.Entry { hyp = h; pcpu; domid = Some d })
      when h = hyp && pcpu = n && d = domid ->
        ()
    | _ -> Alcotest.failf "%s did not round-trip" entry_d);
    List.iter
      (fun (dir, name) ->
        let port_l = Marker.port ~switch ~port:n dir in
        Alcotest.(check string) "port"
          (Printf.sprintf "vswitch.%s/p%d/%s" switch n name)
          port_l;
        check_op port_l;
        if dir <> Marker.Drop then begin
          let uplink_l = Marker.uplink ~switch ~uplink:n dir in
          Alcotest.(check string) "uplink"
            (Printf.sprintf "wire.%s-u%d/%s" switch n name)
            uplink_l;
          check_op uplink_l
        end)
      [ (Marker.Rx, "rx"); (Marker.Tx, "tx"); (Marker.Drop, "drop") ]
  done

(* --- synthetic trace for pairing/lanes/renderers --------------------- *)

let ev ts name kind =
  (* Track "cpu" is machine "m0"; secondary machines are "m<N>:cpu". *)
  { Span.ts; track = "cpu"; cat = Span.of_label name; name; kind }

(* Two hvc exits on PCPU 4; only the first re-enters (latency 600), the
   second is still pending when the trace ends. One guest span and one
   hypervisor span feed the attribution lanes. *)
let synthetic_process =
  {
    Export.pid = 0;
    name = "cell#0.0";
    dropped = 0;
    events =
      [
        ev 100
          (Marker.exit_name ~hyp:"kvm_arm" ~reason:"hvc" ~pcpu:4)
          Span.Instant;
        ev 150 "kvm_arm.host_dispatch" (Span.Complete 300);
        ev 700
          (Marker.entry ~hyp:"kvm_arm" ~pcpu:4 ())
          Span.Instant;
        ev 800 "vm_processing" (Span.Complete 500);
        ev 1400
          (Marker.exit_name ~hyp:"kvm_arm" ~reason:"hvc" ~pcpu:4)
          Span.Instant;
        ev 1450 "kvm_arm.vipi" Span.Instant;
      ];
  }

let synthetic_accounting () = Accounting.of_processes [ synthetic_process ]

let test_pairing_and_lanes () =
  let acct = synthetic_accounting () in
  let vm =
    match acct.Accounting.vms with
    | [ vm ] -> vm
    | vms ->
        Alcotest.failf "expected one vm_stats row, got %d" (List.length vms)
  in
  Alcotest.(check string) "machine" "m0" vm.Accounting.machine;
  Alcotest.(check string) "hyp" "kvm_arm" vm.Accounting.hyp;
  Alcotest.(check int) "entries" 1 vm.Accounting.entries;
  (match vm.Accounting.exits with
  | [ ("hvc", 2, hist) ] ->
      Alcotest.(check int) "latency samples" 1 hist.Accounting.count;
      Alcotest.(check int) "latency sum" 600 hist.Accounting.sum;
      Alcotest.(check int) "latency min" 600 hist.Accounting.min;
      Alcotest.(check int) "latency max" 600 hist.Accounting.max;
      Alcotest.(check (list (pair int int)))
        "log2 bucket: 600 lands at bound 1024" [ (1024, 1) ]
        hist.Accounting.buckets
  | _ -> Alcotest.fail "expected exactly [hvc x2]");
  Alcotest.(check (list (pair string int)))
    "ops" [ ("vipi", 1) ] vm.Accounting.ops;
  Alcotest.(check int) "guest cycles" 500 vm.Accounting.guest_cycles;
  Alcotest.(check int) "hypervisor cycles" 300 vm.Accounting.hyp_cycles;
  Alcotest.(check int) "total exits" 2 acct.Accounting.total_exits

let test_lane_rules () =
  List.iter
    (fun (label, expect) ->
      Alcotest.(check string)
        label
        (Accounting.lane_to_string expect)
        (Accounting.lane_to_string (Accounting.lane_of_label label)))
    [
      ("vm_processing", Accounting.Guest);
      ("native_server", Accounting.Guest);
      ("guest_compute", Accounting.Guest);
      ("kvm_arm.virq_complete", Accounting.Guest);
      ("eoi_vapic", Accounting.Guest);
      ("kvm_arm.host_dispatch", Accounting.Hypervisor);
      ("trap_to_el2", Accounting.Hypervisor);
      ("xen.switch", Accounting.Hypervisor);
    ]

(* --- renderer goldens ------------------------------------------------ *)

let render render_fn =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  render_fn fmt (synthetic_accounting ());
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* The armvirt.stat/v1 document for the synthetic trace, verbatim. If
   this changes shape, bump the schema string and the diff loader. *)
let golden_json =
  {|{
  "schema": "armvirt.stat/v1",
  "context": "golden",
  "vms": [
    {"cell": "cell#0.0", "machine": "m0", "hyp": "kvm_arm",
     "entries": 1,
     "exits": [{"reason": "hvc", "count": 2, "latency": {"count": 1, "sum": 600, "min": 600, "max": 600, "buckets": [[1024, 1]]}}],
     "ops": [{"op": "vipi", "count": 1}],
     "attribution": {"guest": 500, "hypervisor": 300}}
  ],
  "totals": {"guest": 500, "hypervisor": 300, "exits": 2}
}
|}

let test_golden_json () =
  let got = render (Stat.render_json ~context:"golden") in
  Alcotest.(check string) "armvirt.stat/v1 golden" golden_json got;
  match Stat.parse_json got with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "golden JSON does not re-parse: %s" e

let test_csv_render () =
  let got = render (Stat.render_csv ~context:"golden") in
  let lines = String.split_on_char '\n' got in
  Alcotest.(check string)
    "header" "kind,cell,machine,hyp,pcpu,name,count,lat_count,lat_sum,lat_min,lat_max"
    (List.hd lines);
  Alcotest.(check bool)
    "exit row present" true
    (List.exists
       (fun l -> l = "exit,cell#0.0,m0,kvm_arm,all,hvc,2,1,600,600,600")
       lines)

(* --- per-domain entry accounting (fleet traces) ----------------------- *)

(* A fleet-style trace: every entry marker carries d<domid>. Two guests
   time-share PCPU 0; a second entry for d0 lands on PCPU 1 with no
   pending exit, so it counts but contributes no latency sample. *)
let fleet_process =
  {
    Export.pid = 0;
    name = "fleet#0.0";
    dropped = 0;
    events =
      [
        ev 100
          (Marker.exit_name ~hyp:"kvm_arm" ~reason:"hvc" ~pcpu:0)
          Span.Instant;
        ev 200
          (Marker.entry ~domid:0 ~hyp:"kvm_arm" ~pcpu:0 ())
          Span.Instant;
        ev 300
          (Marker.exit_name ~hyp:"kvm_arm" ~reason:"irq" ~pcpu:0)
          Span.Instant;
        ev 350
          (Marker.entry ~domid:1 ~hyp:"kvm_arm" ~pcpu:0 ())
          Span.Instant;
        ev 400
          (Marker.entry ~domid:0 ~hyp:"kvm_arm" ~pcpu:1 ())
          Span.Instant;
      ];
  }

let render_process ?opts p =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Stat.render_json ?opts ~context:"fleet-golden" fmt
    (Accounting.of_processes [ p ]);
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let per_domain_opts = { Stat.default_options with Stat.per_domain = true }

(* Verbatim armvirt.stat/v1 with --per-domain: the one place the
   per_domain member may appear. *)
let fleet_golden_json =
  {|{
  "schema": "armvirt.stat/v1",
  "context": "fleet-golden",
  "vms": [
    {"cell": "fleet#0.0", "machine": "m0", "hyp": "kvm_arm",
     "entries": 3,
     "per_domain": [{"domid": 0, "entries": 2}, {"domid": 1, "entries": 1}],
     "exits": [{"reason": "hvc", "count": 1, "latency": {"count": 1, "sum": 100, "min": 100, "max": 100, "buckets": [[128, 1]]}}, {"reason": "irq", "count": 1, "latency": {"count": 1, "sum": 50, "min": 50, "max": 50, "buckets": [[64, 1]]}}],
     "ops": [],
     "attribution": {"guest": 0, "hypervisor": 0}}
  ],
  "totals": {"guest": 0, "hypervisor": 0, "exits": 2}
}
|}

let contains_substring haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_per_domain_golden () =
  let got = render_process ~opts:per_domain_opts fleet_process in
  Alcotest.(check string) "per-domain golden" fleet_golden_json got;
  (match Stat.parse_json got with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "per-domain golden does not re-parse: %s" e);
  (* Without the opt-in, the document must not grow the member — the
     pre-fleet golden above depends on it. *)
  let default = render_process fleet_process in
  Alcotest.(check bool)
    "per_domain absent by default" false
    (contains_substring default "per_domain")

let test_per_domain_diff () =
  let old_doc = render_process ~opts:per_domain_opts fleet_process in
  (match Stat.diff old_doc old_doc with
  | Ok [] -> ()
  | Ok fs -> Alcotest.failf "self-diff found %d findings" (List.length fs)
  | Error e -> Alcotest.failf "self-diff errored: %s" e);
  let perturbed =
    {
      fleet_process with
      Export.events =
        fleet_process.Export.events
        @ [
            ev 500
              (Marker.entry ~domid:1 ~hyp:"kvm_arm" ~pcpu:1 ())
              Span.Instant;
          ];
    }
  in
  let new_doc = render_process ~opts:per_domain_opts perturbed in
  match Stat.diff old_doc new_doc with
  | Ok findings ->
      Alcotest.(check bool)
        "per-domain drift is a finding" true
        (List.exists
           (fun (f : Stat.finding) ->
             contains_substring f.Stat.path "per_domain[d1]")
           findings)
  | Error e -> Alcotest.failf "per-domain diff errored: %s" e

let test_per_domain_csv () =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Stat.render_csv ~opts:per_domain_opts ~context:"fleet-golden" fmt
    (Accounting.of_processes [ fleet_process ]);
  Format.pp_print_flush fmt ();
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "row %S present" expected)
        true
        (List.exists (fun l -> l = expected) lines))
    [
      "entry,fleet#0.0,m0,kvm_arm,all,d0,2,,,,";
      "entry,fleet#0.0,m0,kvm_arm,all,d1,1,,,,";
    ]

(* --- RFC 4180 CSV escaping (trace exporter regression) --------------- *)

let test_csv_escaping () =
  let evil = "a,b\"c\r\nd" in
  let p =
    {
      Export.pid = 0;
      name = evil;
      dropped = 0;
      events = [ ev 10 evil (Span.Complete 5) ];
    }
  in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Export.csv fmt [ p ];
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  (* Quoted, with the embedded quote doubled; the raw CR/LF must only
     ever appear inside a quoted field. *)
  Alcotest.(check bool)
    "field quoted with doubled quote" true
    (contains "\"a,b\"\"c\r\nd\"");
  Alcotest.(check bool) "unquoted evil field absent" false (contains ",a,b\"c")

(* --- jobs-invariance on a real workload ------------------------------ *)

let rr_stat_json () =
  Observe.enable ~context:"rr" ();
  Fun.protect ~finally:Observe.disable (fun () ->
      let (), cell =
        Observe.capture ~label:"rr#0.0" (fun () ->
            ignore
              (W.Netperf.run_tcp_rr ~transactions:100
                 (Platform.hypervisor Platform.Arm_m400 Platform.Kvm)))
      in
      Observe.record_cells [| cell |];
      let buf = Buffer.create 4096 in
      let fmt = Format.formatter_of_buffer buf in
      Stat.render_json ~context:"rr" fmt (Stat_report.of_session ());
      Format.pp_print_flush fmt ();
      Buffer.contents buf)

let test_jobs_invariance () =
  Runner.set_jobs 1;
  let a = rr_stat_json () in
  Runner.set_jobs 4;
  let b = rr_stat_json () in
  Runner.set_jobs 1;
  Alcotest.(check bool) "non-empty" true (String.length a > 0);
  Alcotest.(check string) "stat JSON byte-identical at --jobs 1 vs 4" a b

(* --- trace-vs-analytic crosscheck ------------------------------------ *)

let test_crosscheck () =
  let checks = Stat_report.crosscheck ~iterations:2 () in
  Alcotest.(check bool) "produced checks" true (List.length checks >= 30);
  List.iter
    (fun c ->
      if not (Stat_report.check_ok c) then
        Alcotest.failf "crosscheck failed: %s %s measured=%g expected=%g"
          c.Stat_report.model c.Stat_report.name c.Stat_report.measured
          c.Stat_report.expected)
    checks

(* --- snapshot diff --------------------------------------------------- *)

let test_diff () =
  let doc = render (Stat.render_json ~context:"golden") in
  (match Stat.diff doc doc with
  | Ok [] -> ()
  | Ok fs -> Alcotest.failf "self-diff found %d findings" (List.length fs)
  | Error e -> Alcotest.failf "self-diff errored: %s" e);
  (* Perturb the latency sum well past the 2% cycles threshold and the
     exit count past the 0% count threshold. *)
  let perturbed =
    {
      synthetic_process with
      Export.events =
        synthetic_process.Export.events
        @ [
            ev 2000
              (Marker.exit_name ~hyp:"kvm_arm" ~reason:"hvc" ~pcpu:4)
              Span.Instant;
            ev 2100 "kvm_arm.host_dispatch" (Span.Complete 900);
          ];
    }
  in
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Stat.render_json ~context:"golden" fmt
    (Accounting.of_processes [ perturbed ]);
  Format.pp_print_flush fmt ();
  (match Stat.diff doc (Buffer.contents buf) with
  | Ok [] -> Alcotest.fail "perturbation produced no findings"
  | Ok _ -> ()
  | Error e -> Alcotest.failf "perturbed diff errored: %s" e);
  match Stat.diff doc "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed input should be an Error"

let () =
  Alcotest.run "stat"
    [
      ( "accounting",
        [
          Alcotest.test_case "marker grammar" `Quick test_parse_label;
          Alcotest.test_case "builders match Printf" `Quick
            test_builders_match_printf;
          Alcotest.test_case "pairing and lanes" `Quick
            test_pairing_and_lanes;
          Alcotest.test_case "lane rules" `Quick test_lane_rules;
        ] );
      ( "render",
        [
          Alcotest.test_case "golden armvirt.stat/v1" `Quick test_golden_json;
          Alcotest.test_case "csv" `Quick test_csv_render;
          Alcotest.test_case "csv escaping (RFC 4180)" `Quick
            test_csv_escaping;
        ] );
      ( "per-domain",
        [
          Alcotest.test_case "golden with --per-domain" `Quick
            test_per_domain_golden;
          Alcotest.test_case "diff covers per_domain" `Quick
            test_per_domain_diff;
          Alcotest.test_case "csv entry rows" `Quick test_per_domain_csv;
        ] );
      ( "session",
        [
          Alcotest.test_case "jobs-invariance (netperf-rr)" `Quick
            test_jobs_invariance;
          Alcotest.test_case "crosscheck vs analytic model" `Slow
            test_crosscheck;
        ] );
      ("diff", [ Alcotest.test_case "thresholded diff" `Quick test_diff ]);
    ]
