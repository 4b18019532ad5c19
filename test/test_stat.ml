(* `armvirt stat` and its accounting layer: marker label bytes,
   exit/entry pairing, lane attribution, renderer golden output from
   scripted machine runs, jobs-invariance, RFC 4180 CSV escaping, the
   counter-vs-trace differential oracle, the trace-vs-analytic
   crosscheck, and the snapshot diff used for regression gating. *)

module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Rng = Armvirt_engine.Rng
module Machine = Armvirt_arch.Machine
module Cost_model = Armvirt_arch.Cost_model
module Span = Armvirt_obs.Span
module Export = Armvirt_obs.Export
module Accounting = Armvirt_obs.Accounting
module Marker = Armvirt_obs.Marker
module Stat = Armvirt_obs.Stat
module Observe = Armvirt_core.Observe
module Runner = Armvirt_core.Runner
module Platform = Armvirt_core.Platform
module Stat_report = Armvirt_core.Stat_report
module Experiment = Armvirt_core.Experiment
module Report = Armvirt_core.Report
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Fleet = Armvirt_fleet
module W = Armvirt_workloads

(* --- marker labels --------------------------------------------------- *)

(* The builders concatenate instead of formatting; their labels must be
   the Printf bytes for every reason, direction and index a model can
   pass, and split into {!Marker.hyp} and {!Marker.name} at the first
   dot. *)
let test_builders_match_printf () =
  let hyp = "kvm_arm" and switch = "tor" in
  let check want m =
    Alcotest.(check string) "label" want (Marker.label m);
    Alcotest.(check string) "hyp.name" want (Marker.hyp m ^ "." ^ Marker.name m)
  in
  check (Printf.sprintf "vswitch.%s/flood" switch) (Marker.flood ~switch);
  check "kvm_arm.hypercall" (Marker.op ~hyp Trap "hypercall");
  for n = 0 to 1023 do
    List.iter
      (fun reason ->
        check
          (Printf.sprintf "%s.exit/%s/p%d" hyp (Marker.reason_to_string reason) n)
          (Marker.exit ~hyp ~reason ~pcpu:n))
      Marker.all_reasons;
    check (Printf.sprintf "%s.entry/p%d" hyp n) (Marker.entry ~hyp ~pcpu:n ());
    let domid = 1023 - n in
    check
      (Printf.sprintf "%s.entry/p%d/d%d" hyp n domid)
      (Marker.entry ~domid ~hyp ~pcpu:n ());
    List.iter
      (fun (dir, name) ->
        check
          (Printf.sprintf "vswitch.%s/p%d/%s" switch n name)
          (Marker.port ~switch ~port:n dir);
        if dir <> Marker.Drop then
          check
            (Printf.sprintf "wire.%s-u%d/%s" switch n name)
            (Marker.uplink ~switch ~uplink:n dir))
      [ (Marker.Rx, "rx"); (Marker.Tx, "tx"); (Marker.Drop, "drop") ]
  done

(* --- scripted machine runs for pairing/lanes/renderers ---------------- *)

type step = Count of Marker.t | Spend of string * int

(* Runs [script], (time, step) pairs in time order, on one fresh machine
   inside a capture labelled [cell] and returns the session's accounting:
   a count happens at its time, a spend starts then. *)
let scripted ?(cell = "cell#0.0") script =
  Observe.enable ~trace:false ~context:"scripted" ();
  Fun.protect ~finally:Observe.disable (fun () ->
      let (), c =
        Observe.capture ~label:cell (fun () ->
            let sim = Sim.create () in
            let m =
              Machine.create sim
                ~cost:(Cost_model.Arm Cost_model.arm_default) ~num_cpus:8
            in
            let steps =
              List.map
                (fun (ts, step) ->
                  ( ts,
                    match step with
                    | Count mk ->
                        let mk = Machine.marker m mk in
                        fun () -> Machine.count mk
                    | Spend (label, cycles) ->
                        let op =
                          Machine.op m
                            ~lane:(Reference_span.lane_of_label label)
                            (Reference_span.of_label label) label
                        in
                        fun () -> Machine.spend op cycles ))
                script
            in
            Sim.spawn sim ~name:"script" (fun () ->
                List.iter
                  (fun (ts, step) ->
                    Sim.delay
                      (Cycles.of_int (ts - Cycles.to_int (Sim.current_time ())));
                    step ())
                  steps);
            Sim.run sim)
      in
      Observe.record_cells [| c |];
      Stat_report.of_session ())

let hvc_exit pcpu = Count (Marker.exit ~hyp:"kvm_arm" ~reason:Marker.Hvc ~pcpu)

(* Two hvc exits on PCPU 4; only the first re-enters (latency 600), the
   second is still pending when the run ends. One guest span and one
   hypervisor span feed the attribution lanes. *)
let synthetic_script =
  [
    (100, hvc_exit 4);
    (150, Spend ("kvm_arm.host_dispatch", 300));
    (700, Count (Marker.entry ~hyp:"kvm_arm" ~pcpu:4 ()));
    (800, Spend ("vm_processing", 500));
    (1400, hvc_exit 4);
    (1450, Count (Marker.op ~hyp:"kvm_arm" Irq "vipi"));
  ]

let synthetic_accounting () = scripted synthetic_script

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

(* The rules the declarations replaced, kept as the differential
   tests' oracle (test/reference_span.ml). *)
let test_lane_rules () =
  List.iter
    (fun (label, expect) ->
      Alcotest.(check string)
        label
        (Accounting.lane_to_string expect)
        (Accounting.lane_to_string (Reference_span.lane_of_label label)))
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

(* The armvirt.stat/v1 document for the synthetic run, verbatim. If
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

(* --- per-domain entry accounting (fleet runs) -------------------------- *)

(* A fleet-style run: every entry marker carries a domid. Two guests
   time-share PCPU 0; a second entry for d0 lands on PCPU 1 with no
   pending exit, so it counts but contributes no latency sample. *)
let entry ~domid pcpu = Count (Marker.entry ~domid ~hyp:"kvm_arm" ~pcpu ())

let fleet_script =
  [
    (100, hvc_exit 0);
    (200, entry ~domid:0 0);
    (300, Count (Marker.exit ~hyp:"kvm_arm" ~reason:Marker.Irq ~pcpu:0));
    (350, entry ~domid:1 0);
    (400, entry ~domid:0 1);
  ]

let render_script ?opts script =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Stat.render_json ?opts ~context:"fleet-golden" fmt
    (scripted ~cell:"fleet#0.0" script);
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
  let got = render_script ~opts:per_domain_opts fleet_script in
  Alcotest.(check string) "per-domain golden" fleet_golden_json got;
  (match Stat.parse_json got with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "per-domain golden does not re-parse: %s" e);
  (* Without the opt-in, the document must not grow the member — the
     pre-fleet golden above depends on it. *)
  let default = render_script fleet_script in
  Alcotest.(check bool)
    "per_domain absent by default" false
    (contains_substring default "per_domain")

let test_per_domain_diff () =
  let old_doc = render_script ~opts:per_domain_opts fleet_script in
  (match Stat.diff old_doc old_doc with
  | Ok [] -> ()
  | Ok fs -> Alcotest.failf "self-diff found %d findings" (List.length fs)
  | Error e -> Alcotest.failf "self-diff errored: %s" e);
  let new_doc =
    render_script ~opts:per_domain_opts (fleet_script @ [ (500, entry ~domid:1 1) ])
  in
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
    (scripted ~cell:"fleet#0.0" fleet_script);
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
  let trace = Armvirt_obs.Tracer.create () in
  Armvirt_obs.Tracer.(
    complete trace ~track:(track trace "cpu") ~cat:Span.Other
      ~name:(name trace evil) ~ts:10 ~dur:5);
  let p = { Export.pid = 0; name = evil; trace } in
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
  Observe.enable ~trace:false ~context:"rr" ();
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

(* --- counters against the trace reduction ------------------------------ *)

let configs =
  [
    (Platform.Arm_m400, Platform.Kvm);
    (Platform.Arm_m400_vhe, Platform.Kvm);
    (Platform.Arm_m400, Platform.Xen);
    (Platform.X86_r320, Platform.Kvm);
    (Platform.X86_r320, Platform.Xen);
  ]

let table1 =
  [|
    (fun (h : Hypervisor.t) -> h.hypercall ());
    (fun h -> h.interrupt_controller_trap ());
    (fun h -> ignore (h.virtual_ipi ()));
    (fun h -> h.virtual_irq_completion ());
    (fun h -> h.vm_switch ());
    (fun h -> ignore (h.io_latency_out ()));
    (fun h -> ignore (h.io_latency_in ()));
  |]

let in_process (h : Hypervisor.t) f =
  let sim = Machine.sim h.machine in
  Sim.spawn sim ~name:"driver" f;
  Sim.run sim

(* One case, drawn from [seed] through Engine.Rng: a config, up to 8
   iterations of a random Table I op sequence (plus a marker interned
   twice), a boot-storm of up to 16 domain-tagged VMs and a service
   chain of up to 40 requests for the port, flood and uplink counters,
   each a cell of one traced session. The counter-built report must
   render byte for byte like Reference_accounting's reduction of the
   trace, the accounting it replaced. *)
let counters_match_trace seed =
  let rng = Rng.create ~seed in
  let platform, hyp = List.nth configs (Rng.int rng ~bound:(List.length configs)) in
  let ops =
    List.init
      (1 + Rng.int rng ~bound:8)
      (fun _ ->
        List.init (1 + Rng.int rng ~bound:7) (fun _ ->
            table1.(Rng.int rng ~bound:(Array.length table1))))
  in
  let vms = 1 + Rng.int rng ~bound:16 and requests = 1 + Rng.int rng ~bound:40 in
  let cell i f =
    snd (Observe.capture ~label:(Printf.sprintf "oracle#0.%d" i) (fun () -> ignore (f ())))
  in
  Observe.enable ~trace:true ~context:"oracle" ();
  Fun.protect ~finally:Observe.disable (fun () ->
      Observe.record_cells
        [|
          cell 0 (fun () ->
              let h = Platform.hypervisor platform hyp in
              let probe = Marker.op ~hyp:"oracle" Other "probe" in
              let mk = Machine.marker h.machine probe in
              ignore (Machine.marker h.machine probe);
              in_process h (fun () ->
                  List.iter (List.iter (fun op -> op h; Machine.count mk)) ops));
          cell 1 (fun () ->
              Fleet.Scenario.boot_storm
                (Platform.hypervisor platform hyp)
                (Fleet.Descriptor.v ~vms [ (Fleet.Descriptor.synthetic, 1) ]));
          cell 2 (fun () ->
              W.Cluster.run_chain ~requests (Platform.hypervisor platform hyp));
        |];
      let render acct =
        Format.asprintf "%a"
          (Stat.render_json
             ~opts:{ Stat.default_options with per_vcpu = true; per_domain = true }
             ~context:"oracle")
          acct
      in
      let processes = Observe.processes () in
      List.for_all
        (fun (p : Export.process) -> Armvirt_obs.Tracer.dropped p.trace = 0)
        processes
      && render (Stat_report.of_session ())
         = render (Reference_accounting.of_processes processes))

let prop_counters_match_trace =
  QCheck.Test.make ~count:100
    ~name:"counter accounting matches the trace reduction"
    QCheck.(make ~print:string_of_int Gen.int)
    counters_match_trace

(* Every cycle a micro run spends lands in one of the two lanes: guest
   plus hypervisor cycles equal the machine's op totals. *)
let test_micro_cycles_conserved () =
  List.iter
    (fun (platform, hyp) ->
      Observe.enable ~trace:false ~context:"micro" ();
      Fun.protect ~finally:Observe.disable (fun () ->
          let total = ref 0 in
          let (), cell =
            Observe.capture ~label:"micro#0.0" (fun () ->
                let h = Platform.hypervisor platform hyp in
                ignore (W.Microbench.run ~iterations:8 h);
                total :=
                  List.fold_left
                    (fun acc (o : Accounting.spent) -> acc + o.cycles)
                    0 (Machine.op_cycles h.machine))
          in
          Observe.record_cells [| cell |];
          let acct = Stat_report.of_session () in
          Alcotest.(check bool) "cycles spent" true (!total > 0);
          Alcotest.(check int)
            (Platform.hypervisor platform hyp).name !total
            (acct.Accounting.total_guest + acct.Accounting.total_hyp)))
    configs

(* --- declared categories and lanes ------------------------------------ *)

(* Each op declares its trace category and stat lane where it is
   interned, and a marker's category follows from its constructor; the
   label rules that used to infer both are test/reference_span.ml. Every
   machine built while running every registry experiment, the three
   cluster and three fleet scenarios and migrate on every model, at
   --jobs 1 so the domain-local create hook sees them all, must agree
   with those rules: each spend's and each count's category (every
   handle, through a sink; no covered run attaches another) and each
   spent op's lane (its first handle, through [Machine.op_cycles]). The ledger goldens pin
   categories only for what rr and micro spend; this guards every other
   op. *)
let declaration_mismatches () =
  let wrong = ref [] in
  let check what label ~got ~want to_string =
    if got <> want then
      wrong :=
        Printf.sprintf "%s %S declares %s, the rules say %s" what label
          (to_string got) (to_string want)
        :: !wrong
  in
  let cat_rule what label ~want got =
    check what label ~got ~want Span.category_to_string
  in
  let built = ref [] in
  (* A label's first category on each machine, by counter id, so a
     handle interned again with another category shows too. *)
  let watch m =
    built := m :: !built;
    let seen = Hashtbl.create 64 in
    let first ~id ~label what ~want cat =
      match Hashtbl.find_opt seen id with
      | Some c -> if c <> cat then cat_rule what label ~want:(want ()) cat
      | None ->
          Hashtbl.add seen id cat;
          cat_rule what label ~want:(want ()) cat
    in
    Machine.attach m
      (Some
         {
           Machine.spend =
             (fun ~id ~label ~cat ~cycles:_ ~now:_ ->
               first ~id ~label "op" cat ~want:(fun () ->
                   Reference_span.of_label label));
           count =
             (fun ~id ~marker ~label ~cat ~now:_ ->
               first ~id ~label "marker" cat ~want:(fun () ->
                   Reference_span.marker_category marker));
         })
  in
  let jobs = Runner.jobs () in
  Experiment.reset_memo ();
  Runner.set_jobs 1;
  Machine.set_create_hook (Some watch);
  Fun.protect
    ~finally:(fun () ->
      Machine.set_create_hook None;
      Runner.set_jobs jobs)
    (fun () ->
      List.iter
        (fun (e : Report.entry) -> ignore (e.tables ()))
        Report.registry;
      ignore (Experiment.cluster_matrix ());
      ignore (Experiment.cluster_chain ());
      ignore (Experiment.cluster_loadgen ());
      ignore (Experiment.fleet_boot_storm ());
      ignore (Experiment.fleet_churn ());
      ignore (Experiment.fleet_noisy ());
      ignore (Experiment.migrate ()));
  List.iter
    (fun m ->
      List.iter
        (fun (o : Accounting.spent) ->
          check "op" o.label ~got:o.lane
            ~want:(Reference_span.lane_of_label o.label)
            Accounting.lane_to_string)
        (Machine.op_cycles m))
    !built;
  (List.length !built, List.sort_uniq String.compare !wrong)

let test_declarations_match_rules () =
  let machines, wrong = declaration_mismatches () in
  Alcotest.(check bool) "machines built" true (machines > 100);
  Alcotest.(check (list string)) "declarations the rules disagree with" []
    wrong;
  (* No run above drops a frame or builds the star topology's spine. *)
  List.iter
    (fun switch ->
      List.iter
        (fun m ->
          Alcotest.(check string) (Marker.label m)
            (Span.category_to_string (Reference_span.marker_category m))
            (Span.category_to_string (Marker.category m)))
        (Marker.flood ~switch
        :: List.concat_map
             (fun n ->
               [ Marker.port ~switch ~port:n Rx; Marker.port ~switch ~port:n Tx;
                 Marker.port ~switch ~port:n Drop;
                 Marker.uplink ~switch ~uplink:n Rx;
                 Marker.uplink ~switch ~uplink:n Tx ])
             (List.init 16 Fun.id)))
    [ "s0"; "s15"; "spine" ]

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
    scripted
      (synthetic_script
      @ [ (2000, hvc_exit 4); (2100, Spend ("kvm_arm.host_dispatch", 900)) ])
  in
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Stat.render_json ~context:"golden" fmt perturbed;
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
          Alcotest.test_case "builders match Printf" `Quick
            test_builders_match_printf;
          Alcotest.test_case "pairing and lanes" `Quick
            test_pairing_and_lanes;
          Alcotest.test_case "lane rules" `Quick test_lane_rules;
          Alcotest.test_case "declarations match the label rules" `Quick
            test_declarations_match_rules;
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
          Alcotest.test_case "micro cycles conserved" `Quick
            test_micro_cycles_conserved;
          QCheck_alcotest.to_alcotest prop_counters_match_trace;
        ] );
      ("diff", [ Alcotest.test_case "thresholded diff" `Quick test_diff ]);
    ]
