(* armvirt: command-line front end for the reproduction.

   Subcommands:
     list          enumerate experiments, platforms and workloads
     run           regenerate paper tables/figures by experiment id, or all
     micro         run the Table I microbenchmark suite on one hypervisor
     app           run one application workload through the Figure 4 model
     rr            run the Netperf TCP_RR decomposition on one hypervisor
     trace         run an experiment under the tracer and export the trace
     explore       sweep or calibrate the design space (lib/explore)
     migrate       live-migrate a loaded VM and report downtime vs the SLO
     fleet         consolidate N guests on one host: boot-storm, churn,
                   noisy-neighbor p99 vs fleet size
     cluster       VM-to-VM traffic over the virtual switch fabric:
                   throughput matrix, service chain, load-generator sweep

   Experiments come from Report.registry; this file only wires them to
   flags. The linter is its own executable, armvirt-lint
   (bin/armvirt_lint.ml). *)

module Platform = Armvirt_core.Platform
module Experiment = Armvirt_core.Experiment
module Report = Armvirt_core.Report
module Observe = Armvirt_core.Observe
module Stat_report = Armvirt_core.Stat_report
module Export = Armvirt_obs.Export
module Tracer = Armvirt_obs.Tracer
module Table = Armvirt_obs.Table
module Metrics = Armvirt_obs.Metrics
module Stat = Armvirt_obs.Stat
module W = Armvirt_workloads
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Fleet = Armvirt_fleet
module Topology = Armvirt_vswitch.Topology

open Cmdliner

let ppf = Format.std_formatter

(* A rejected argument: one line on stderr, so none lands in the data on
   stdout, and exit code 2. *)
let reject fmt =
  Format.kasprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

(* --- shared converters ------------------------------------------------ *)

let platform_conv =
  let parse = function
    | "arm" -> Ok Platform.Arm_m400
    | "arm-vhe" -> Ok Platform.Arm_m400_vhe
    | "x86" -> Ok Platform.X86_r320
    | s -> Error (`Msg (Printf.sprintf "unknown platform %S (arm|arm-vhe|x86)" s))
  in
  let print fmt p =
    Format.pp_print_string fmt
      (match p with
      | Platform.Arm_m400 -> "arm"
      | Platform.Arm_m400_vhe -> "arm-vhe"
      | Platform.X86_r320 -> "x86")
  in
  Arg.conv (parse, print)

let hyp_conv =
  let parse = function
    | "kvm" -> Ok (Some Platform.Kvm)
    | "xen" -> Ok (Some Platform.Xen)
    | "native" -> Ok None
    | s -> Error (`Msg (Printf.sprintf "unknown hypervisor %S (kvm|xen|native)" s))
  in
  let print fmt h =
    Format.pp_print_string fmt
      (match h with
      | Some Platform.Kvm -> "kvm"
      | Some Platform.Xen -> "xen"
      | None -> "native")
  in
  Arg.conv (parse, print)

let platform_arg =
  Arg.(
    value
    & opt platform_conv Platform.Arm_m400
    & info [ "p"; "platform" ] ~docv:"PLATFORM"
        ~doc:"Platform: arm, arm-vhe or x86.")

let hyp_arg =
  Arg.(
    value
    & opt hyp_conv (Some Platform.Kvm)
    & info [ "H"; "hypervisor" ] ~docv:"HYP"
        ~doc:
          "Hypervisor: kvm, xen or native. With $(b,-p arm-vhe) only kvm or \
           native: Xen is a Type 1 hypervisor, which VHE does not change, \
           so there is no arm-vhe Xen model.")

(* -p and -H as one configuration. The one pair with no model is
   rejected here, before anything runs. *)
let config_args =
  let check platform hyp =
    match (platform, hyp) with
    | Platform.Arm_m400_vhe, Some Platform.Xen ->
        reject "-p arm-vhe takes -H kvm or native: there is no VHE Xen model"
    | _ -> (platform, hyp)
  in
  Term.(const check $ platform_arg $ hyp_arg)

let resolve platform hyp =
  match hyp with
  | Some id -> Platform.hypervisor platform id
  | None -> Platform.native platform

(* An integer option the parser rejects below [lo]: a usage error
   (exit 124) before anything runs. *)
let int_in ~what lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ -> Error (`Msg ("must be " ^ what))
    | None -> Error (`Msg "expected an integer")
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_int)

let positive_int = int_in ~what:"a positive integer" 1

let jobs_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run up to $(docv) independent simulation cells in parallel (OCaml \
           domains). Output is byte-identical at every level. Defaults to \
           $(b,ARMVIRT_JOBS) if set, else the machine's recommended domain \
           count.")

let apply_jobs = function
  | Some n -> Armvirt_core.Runner.set_jobs n
  | None -> ()

(* --- output plumbing -------------------------------------------------- *)

let out_arg =
  Arg.(
    value & opt string "-"
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Output file; $(b,-) (default) writes to stdout.")

(* Where a report goes: stdout for "-", else a file. A command opens
   each of its outputs after checking its arguments and before it runs
   anything, so a path it cannot write is a rejected argument, not an
   internal error after the run. *)
type output = Stdout | File of string * out_channel

let open_output = function
  | "-" -> Stdout
  | path -> (
      match open_out path with
      | oc -> File (path, oc)
      | exception Sys_error msg -> reject "cannot write output: %s" msg)

(* The one output writer: [render] goes to stdout, or to the file
   followed by a "wrote PATH" status line on stdout ending in
   [detail]. *)
let write_out ?(detail = "") output render =
  match output with
  | Stdout ->
      render Format.std_formatter;
      Format.pp_print_flush Format.std_formatter ()
  | File (path, oc) ->
      let out = Format.formatter_of_out_channel oc in
      render out;
      Format.pp_print_flush out ();
      close_out oc;
      Format.fprintf ppf "wrote %s%s@." path detail

let table_format = Arg.enum [ ("md", `Md); ("csv", `Csv) ]

let table_format_arg ~doc =
  Arg.(value & opt table_format `Md & info [ "format" ] ~docv:"FORMAT" ~doc)

(* [--format md|csv] of migrate, fleet and cluster. *)
let write_table format out table =
  write_out out (fun out ->
      match format with
      | `Csv -> Table.csv out table
      | `Md -> Table.markdown out table)

(* --- tracing plumbing ------------------------------------------------- *)

let format_conv =
  Arg.enum [ ("chrome", `Chrome); ("csv", `Csv); ("summary", `Summary) ]

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a structured trace of the run and write it to $(docv) as \
           Chrome trace-event JSON (open in Perfetto or chrome://tracing). \
           Use $(b,-) for stdout.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose" ]
        ~doc:
          "After the run, print runner metrics: memo hits/misses, per-cell \
           wall time, and the full metric registry in Prometheus text \
           format.")

(* Direct workload paths (micro/app/rr) never go through Runner.map, so
   they record themselves as one explicit cell. No-op when tracing is
   off. *)
let traced_cell label f =
  let v, cell = Observe.capture ~label f in
  Observe.record_cells [| cell |];
  v

let write_trace ~format output =
  let procs = Observe.processes () in
  let events =
    List.fold_left
      (fun acc (p : Export.process) -> acc + Tracer.length p.trace)
      0 procs
  in
  write_out output
    ~detail:(Printf.sprintf " (%d cells, %d events)" (List.length procs) events)
    (fun out ->
      match format with
      | `Chrome -> Export.chrome out procs
      | `Csv -> Export.csv out procs
      | `Summary -> Export.summary out procs)

let print_verbose ppf =
  let hits, misses = Experiment.memo_stats () in
  Format.fprintf ppf "@.-- runner metrics --@.";
  Format.fprintf ppf "memo: %d hits, %d misses@." hits misses;
  Metrics.pp_prometheus ppf (Observe.metrics ())

let stat_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stat" ] ~docv:"FILE"
        ~doc:
          "After the run, write the exit-accounting report (per-reason \
           exit counts and latencies, guest/hypervisor cycle \
           attribution) as $(b,armvirt.stat/v1) JSON to $(docv); \
           $(b,-) writes it to stdout.")

let write_stat ~context output =
  let acct = Stat_report.of_session () in
  write_out output
    ~detail:
      (Printf.sprintf " (%d accounting rows)"
         (List.length acct.Armvirt_obs.Accounting.vms))
    (fun out -> Stat.render_json ~context out acct)

type session = {
  jobs : int option;
  trace_file : string option;
  stat_file : string option;
}

(* The --jobs/--trace/--stat trio, for the commands that take all three. *)
let session_args =
  Term.(
    const (fun jobs trace_file stat_file -> { jobs; trace_file; stat_file })
    $ jobs_arg $ trace_file_arg $ stat_file_arg)

(* A cell whose ring reached its cap lost its oldest events, so its
   trace is short: one line on stderr per such cell, leaving stdout and
   the exports as they are. Exit accounting reads the machines'
   counters and loses nothing. *)
let warn_dropped () =
  List.iter
    (fun (c : Observe.cell) ->
      let dropped = Tracer.dropped c.trace in
      if dropped > 0 then
        Printf.eprintf
          "armvirt: warning: cell %s dropped %d trace events (ring full)\n%!"
          c.label dropped)
    (Observe.cells ())

(* Tracing, [--stat] and [--verbose] share a session: all need the
   machines instrumented; they differ in what is exported afterwards,
   and only a trace export records ring events. The trace and stat
   files are opened before [f] runs. *)
let with_session ~context ?(verbose = false) s f =
  apply_jobs s.jobs;
  let trace = Option.map open_output s.trace_file in
  let stat = Option.map open_output s.stat_file in
  if Option.is_none trace && Option.is_none stat && not verbose then f ()
  else begin
    Observe.enable ~trace:(Option.is_some trace) ~context ();
    Fun.protect ~finally:Observe.disable (fun () ->
        let v = f () in
        Option.iter (write_trace ~format:`Chrome) trace;
        Option.iter (write_stat ~context) stat;
        if Option.is_some trace then warn_dropped ();
        if verbose then print_verbose ppf;
        v)
  end

(* --- observed targets (trace, stat) ----------------------------------- *)

let is_target s =
  List.mem s [ "rr"; "micro"; "fleet"; "cluster" ] || Report.find s <> None

let unknown_target s = Printf.sprintf "unknown target %S; try `armvirt list`" s

let target_conv =
  let parse s = if is_target s then Ok s else Error (`Msg (unknown_target s)) in
  Arg.conv (parse, Format.pp_print_string)

(* Runs [target] (see [is_target]) with the observer on, then [export]s
   what it recorded; [trace] records ring events for a trace export. The
   direct paths build their hypervisor inside one observed cell,
   honouring -p/-H. *)
let observe_target ~trace ~platform ~hyp ?(iterations = 32) target export =
  let hypervisor () = resolve platform hyp in
  let cell f = traced_cell (target ^ "#0.0") (fun () -> ignore (f ())) in
  Observe.enable ~trace ~context:target ();
  Fun.protect ~finally:Observe.disable (fun () ->
      (match target with
      | "micro" ->
          cell (fun () -> W.Microbench.run ~iterations (hypervisor ()))
      | "rr" -> cell (fun () -> W.Netperf.run_tcp_rr (hypervisor ()))
      | "fleet" ->
          cell (fun () ->
              let desc =
                Fleet.Descriptor.v ~vms:8 [ (Fleet.Descriptor.synthetic, 1) ]
              in
              Fleet.Scenario.boot_storm (hypervisor ()) desc)
      | "cluster" ->
          (* A two-host service chain: the vswitch.* and wire.* per-port
             counters surface as operation rows. *)
          cell (fun () -> W.Cluster.run_chain ~requests:40 (hypervisor ()))
      | id ->
          (* The export is the output: the tables are dropped. *)
          Option.iter
            (fun (e : Report.entry) -> ignore (e.tables ()))
            (Report.find id));
      export ();
      warn_dropped ())

(* --- list ------------------------------------------------------------- *)

let list_cmd =
  let run () =
    print_endline "Experiments (armvirt run <id>):";
    List.iter
      (fun (e : Report.entry) -> Printf.printf "  %-10s %s\n" e.id e.doc)
      Report.registry;
    print_endline "\nPlatforms (-p): arm, arm-vhe, x86";
    print_endline "Hypervisors (-H): kvm, xen, native";
    print_endline "\nApplication workloads (armvirt app <name>):";
    List.iter
      (fun w ->
        Printf.printf "  %-14s %s\n" w.W.Workload.name
          w.W.Workload.description)
      W.Workload.all;
    List.iter
      (fun (n, d) -> Printf.printf "  %-14s %s\n" n d)
      [
        ("TCP_RR", "netperf 1-byte request-response (latency)");
        ("TCP_STREAM", "netperf bulk receive into the VM (throughput)");
        ("TCP_MAERTS", "netperf bulk transmit out of the VM (throughput)");
      ]
  in
  Cmd.v (Cmd.info "list" ~doc:"Enumerate experiments, platforms and workloads")
    Term.(const run $ const ())

(* --- run ---------------------------------------------------------------- *)

let run_cmd =
  let ids =
    let ids =
      List.map (fun (e : Report.entry) -> (e.id, e)) Report.registry
    in
    Arg.(
      value
      & pos_all (enum ids) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiment ids (see `armvirt list`); none runs every one.")
  in
  let run session verbose entries =
    let entries = match entries with [] -> Report.registry | l -> l in
    let context =
      String.concat "+" (List.map (fun (e : Report.entry) -> e.id) entries)
    in
    with_session ~context ~verbose session (fun () ->
        List.iter (Report.run ppf) entries)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ session_args $ verbose_arg $ ids)

(* --- micro ---------------------------------------------------------------- *)

let micro_cmd =
  let iterations =
    Arg.(
      value & opt positive_int 32
      & info [ "iterations" ] ~docv:"N" ~doc:"Iterations per microbenchmark.")
  in
  let run (platform, hyp) iterations session =
    with_session ~context:"micro" session (fun () ->
        (* The hypervisor (and its machine) must be built inside the
           captured cell so the tracer attaches to it. *)
        traced_cell "micro#0.0" (fun () ->
            let hypervisor = resolve platform hyp in
            Format.fprintf ppf "%s on %s@." hypervisor.Hypervisor.name
              (Platform.name platform);
            let rows =
              W.Microbench.to_rows (W.Microbench.run ~iterations hypervisor)
            in
            List.iter
              (fun (name, cycles) ->
                Format.fprintf ppf "  %-28s %8d cycles@." name cycles)
              rows))
  in
  Cmd.v
    (Cmd.info "micro" ~doc:"Run the Table I microbenchmark suite")
    Term.(const run $ config_args $ iterations $ session_args)

(* --- app ------------------------------------------------------------------- *)

let app_cmd =
  let workload =
    let parse name =
      match String.uppercase_ascii name with
      | ("TCP_RR" | "TCP_STREAM" | "TCP_MAERTS") as n -> Ok (`Netperf n)
      | _ -> (
          match W.Workload.find name with
          | Some w -> Ok (`App w)
          | None ->
              Error
                (`Msg
                  (Printf.sprintf "unknown workload %S; try `armvirt list`"
                     name)))
    in
    let print fmt = function
      | `Netperf n -> Format.pp_print_string fmt n
      | `App w -> Format.pp_print_string fmt w.W.Workload.name
    in
    Arg.(
      required
      & pos 0 (some (conv (parse, print))) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see `armvirt list`).")
  in
  let distribute =
    Arg.(
      value & flag
      & info [ "distribute-irqs" ]
          ~doc:"Spread virtual interrupts across all VCPUs (section V ablation).")
  in
  let run (platform, hyp) workload distribute session =
    with_session ~context:"app" session @@ fun () ->
    traced_cell "app#0.0" @@ fun () ->
    let hypervisor = resolve platform hyp in
    let stream (r : W.Netperf.stream_result) =
      Format.fprintf ppf "%s: %.2f Gb/s (%.2fx native time, %s-bound)@."
        hypervisor.Hypervisor.name r.W.Netperf.gbps
        r.W.Netperf.stream_normalized r.W.Netperf.stream_bottleneck
    in
    match workload with
    | `Netperf "TCP_RR" ->
        let r = W.Netperf.run_tcp_rr hypervisor in
        Format.fprintf ppf "%s: %.0f trans/s, %.1f us/trans (%.2fx native)@."
          hypervisor.Hypervisor.name r.W.Netperf.trans_per_sec
          r.W.Netperf.time_per_trans_us r.W.Netperf.normalized
    | `Netperf "TCP_STREAM" -> stream (W.Netperf.tcp_stream hypervisor)
    | `Netperf _ -> stream (W.Netperf.tcp_maerts hypervisor)
    | `App w ->
        let irq_distribution =
          if distribute then W.App_model.All_vcpus else W.App_model.Single_vcpu
        in
        let v = W.App_model.run ~irq_distribution w hypervisor in
        Format.fprintf ppf
          "%s on %s: %.2fx native (overhead %.1f%%, bottleneck: %s)@."
          w.W.Workload.name hypervisor.Hypervisor.name
          v.W.App_model.normalized
          (W.App_model.overhead_percent v)
          v.W.App_model.bottleneck
  in
  Cmd.v
    (Cmd.info "app" ~doc:"Run one application workload (Figure 4 model)")
    Term.(
      const run $ config_args $ workload $ distribute $ session_args)

(* --- rr ---------------------------------------------------------------------- *)

let rr_cmd =
  let transactions =
    Arg.(
      value & opt positive_int 400
      & info [ "transactions" ] ~docv:"N" ~doc:"Transactions to simulate.")
  in
  let run (platform, hyp) transactions trace_file =
    with_session ~context:"rr" { jobs = None; trace_file; stat_file = None }
    @@ fun () ->
    traced_cell "rr#0.0" @@ fun () ->
    let hypervisor = resolve platform hyp in
    let r = W.Netperf.run_tcp_rr ~transactions hypervisor in
    Format.fprintf ppf "%s TCP_RR (%d transactions)@." hypervisor.Hypervisor.name
      transactions;
    Format.fprintf ppf "  trans/s       %10.0f@." r.W.Netperf.trans_per_sec;
    Format.fprintf ppf "  time/trans    %10.1f us@." r.W.Netperf.time_per_trans_us;
    Format.fprintf ppf "  send to recv  %10.1f us@." r.W.Netperf.send_to_recv_us;
    Format.fprintf ppf "  recv to send  %10.1f us@." r.W.Netperf.recv_to_send_us;
    let opt label = function
      | Some v -> Format.fprintf ppf "  %-13s %10.1f us@." label v
      | None -> ()
    in
    opt "-> VM recv" r.W.Netperf.recv_to_vm_recv_us;
    opt "in VM" r.W.Netperf.vm_recv_to_vm_send_us;
    opt "VM send ->" r.W.Netperf.vm_send_to_send_us
  in
  Cmd.v
    (Cmd.info "rr" ~doc:"Netperf TCP_RR latency decomposition (Table V)")
    Term.(const run $ config_args $ transactions $ trace_file_arg)

(* --- trace ---------------------------------------------------------------- *)

let trace_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some target_conv) None
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "What to trace: any experiment id from `armvirt list`, or \
             $(b,rr) / $(b,micro) / $(b,fleet) / $(b,cluster) for the \
             direct workload paths (honouring $(b,-p)/$(b,-H)).")
  in
  let format =
    Arg.(
      value & opt format_conv `Chrome
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Export format: $(b,chrome) (trace-event JSON for \
             Perfetto/chrome://tracing), $(b,csv), or $(b,summary) \
             (flame-style cycle attribution by category).")
  in
  let run (platform, hyp) jobs target out format =
    apply_jobs jobs;
    let out = open_output out in
    observe_target ~trace:true ~platform ~hyp target (fun () ->
        write_trace ~format out)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run an experiment under the tracer and export the trace")
    Term.(
      const run $ config_args $ jobs_arg $ target $ out_arg $ format)

(* --- stat ----------------------------------------------------------------- *)

let stat_cmd =
  let targets =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:
            "What to account: any experiment id from `armvirt list`, \
             $(b,rr) / $(b,micro) for the direct workload paths \
             (honouring $(b,-p)/$(b,-H)), $(b,fleet) for a small \
             boot-storm whose entries are domain-tagged, or \
             $(b,cluster) for a two-host service chain with \
             per-port vswitch and wire counters. With \
             $(b,--diff), two armvirt.stat/v1 JSON files (old then \
             new).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("csv", `Csv); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "$(b,text) (perf-kvm-stat-style table), $(b,csv), or $(b,json) \
             (the armvirt.stat/v1 schema $(b,--diff) consumes).")
  in
  let per_vcpu =
    Arg.(
      value & flag
      & info [ "per-vcpu" ]
          ~doc:"Break exit rows out per physical CPU (VCPU pinning is 1:1).")
  in
  let per_domain =
    Arg.(
      value & flag
      & info [ "per-domain" ]
          ~doc:
            "Break entry counts out per guest domain. Only fleet \
             scenarios tag entries with a domid; on other targets this \
             adds nothing.")
  in
  let top =
    Arg.(
      value
      & opt (int_in ~what:"a non-negative integer" 0) 0
      & info [ "top" ] ~docv:"N"
          ~doc:
            "Keep only the top $(docv) exit reasons by count; 0 (the \
             default) = all. Must not be negative.")
  in
  let iterations =
    Arg.(
      value & opt positive_int 32
      & info [ "iterations" ] ~docv:"N"
          ~doc:
            "Iterations per microbenchmark ($(b,micro) target and \
             $(b,--crosscheck)).")
  in
  let diff =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Regression-gate mode: compare two armvirt.stat/v1 JSON \
             reports and exit non-zero if any exit count, op count, \
             latency sum or cycle attribution moved beyond the \
             tolerances.")
  in
  let count_tolerance =
    Arg.(
      value & opt float Stat.default_thresholds.Stat.count_pct
      & info [ "count-tolerance" ] ~docv:"PCT"
          ~doc:
            "Max tolerated relative change of any count, in percent. The \
             simulation is deterministic, so the default is $(b,0): any \
             count change is a finding.")
  in
  let cycles_tolerance =
    Arg.(
      value & opt float Stat.default_thresholds.Stat.cycles_pct
      & info [ "cycles-tolerance" ] ~docv:"PCT"
          ~doc:
            "Max tolerated relative change of latency sums and \
             attribution cycles, in percent.")
  in
  let crosscheck =
    Arg.(
      value & flag
      & info [ "crosscheck" ]
          ~doc:
            "Validate the counter-derived accounting against the analytic \
             cost model on all five hypervisor models (Table III span \
             reconstruction, hypercall exit latency vs path costs and \
             Table II, structural exit mixes); exit non-zero if any \
             check is out of tolerance.")
  in
  let read_file path =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> s
    | exception Sys_error msg -> reject "stat diff: %s" msg
  in
  let run (platform, hyp) jobs iterations format out per_vcpu per_domain top
      diff crosscheck count_pct cycles_pct targets =
    apply_jobs jobs;
    if diff then (
      match targets with
      | [ old_file; new_file ] -> (
          let thresholds = { Stat.count_pct; cycles_pct } in
          match Stat.diff ~thresholds (read_file old_file) (read_file new_file)
          with
          | Error msg -> reject "stat diff: %s" msg
          | Ok findings ->
              write_out (open_output out) (fun ppf ->
                  match findings with
                  | [] ->
                      Format.fprintf ppf
                        "stat diff: no findings (count tol %.2f%%, cycles \
                         tol %.2f%%)@."
                        count_pct cycles_pct
                  | _ -> Stat.pp_findings ppf findings);
              if findings <> [] then exit 1)
      | _ -> reject "stat --diff needs exactly two JSON reports")
    else if crosscheck then begin
      let out = open_output out in
      let checks = Stat_report.crosscheck ~iterations () in
      write_out out (fun ppf -> Stat_report.pp_checks ppf checks);
      if not (List.for_all Stat_report.check_ok checks) then exit 1
    end
    else
      match targets with
      | [ target ] when is_target target ->
          let out = open_output out in
          observe_target ~trace:false ~platform ~hyp ~iterations target
            (fun () ->
              let acct = Stat_report.of_session () in
              let opts = { Stat.per_vcpu; per_domain; top } in
              write_out out (fun fmt ->
                  match format with
                  | `Text -> Stat.render_text ~opts ~context:target fmt acct
                  | `Csv -> Stat.render_csv ~opts ~context:target fmt acct
                  | `Json -> Stat.render_json ~opts ~context:target fmt acct))
      | [ target ] -> reject "%s" (unknown_target target)
      | _ ->
          reject
            "stat needs one target (or --diff OLD NEW / --crosscheck); try \
             `armvirt list`"
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "kvm_stat-style exit accounting: per-reason exit counts and \
          latencies, guest vs hypervisor cycle attribution, regression \
          diffing and the counter-vs-analytic crosscheck")
    Term.(
      const run $ config_args $ jobs_arg $ iterations $ format
      $ out_arg $ per_vcpu $ per_domain $ top $ diff $ crosscheck
      $ count_tolerance $ cycles_tolerance $ targets)

(* --- timeline ------------------------------------------------------------ *)

let timeline_ops =
  [
    ("hypercall", fun (h : Hypervisor.t) -> h.hypercall ());
    ("ict", fun h -> h.interrupt_controller_trap ());
    ("eoi", fun h -> h.virtual_irq_completion ());
    ("vmswitch", fun h -> h.vm_switch ());
    ("vipi", fun h -> ignore (h.virtual_ipi ()));
    ("io-out", fun h -> ignore (h.io_latency_out ()));
    ("io-in", fun h -> ignore (h.io_latency_in ()));
  ]

let timeline_cmd =
  let operation =
    Arg.(
      value
      & opt (enum (List.map (fun (op, _) -> (op, op)) timeline_ops)) "hypercall"
      & info [ "op" ] ~docv:"OP"
          ~doc:
            "Operation to trace: hypercall, ict, eoi, vmswitch, vipi, io-out \
             or io-in.")
  in
  let run (platform, hyp) op =
    let hypervisor = resolve platform hyp in
    let machine = hypervisor.Hypervisor.machine in
    let tracer = Tracer.create () in
    let path = List.assoc op timeline_ops in
    Armvirt_engine.Sim.spawn
      (Armvirt_arch.Machine.sim machine)
      ~name:"timeline" (fun () ->
        Armvirt_arch.Machine.attach machine
          (Some (Observe.machine_sink ~track:"cpu" tracer));
        path hypervisor;
        Armvirt_arch.Machine.attach machine None);
    Armvirt_engine.Sim.run (Armvirt_arch.Machine.sim machine);
    let events = Tracer.events tracer in
    Format.fprintf ppf "%s: %s, step by step@." hypervisor.Hypervisor.name op;
    Observe.pp_timeline ppf events;
    Format.fprintf ppf "total: %d cycles@."
      (List.fold_left (fun n e -> n + Armvirt_obs.Span.duration e) 0 events)
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Cycle-by-cycle ledger of one hypervisor operation")
    Term.(const run $ config_args $ operation)

(* --- explore --------------------------------------------------------------- *)

module Explore = Armvirt_explore

let explore_cmd =
  let space_conv =
    let parse s =
      match Explore.Space.of_string s with
      | space -> Ok space
      | exception Invalid_argument msg -> Error (`Msg msg)
    in
    Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Explore.Space.to_string s))
  in
  let sampler_conv =
    let parse s =
      match Explore.Sampler.of_string s with
      | sampler -> Ok sampler
      | exception Invalid_argument msg -> Error (`Msg msg)
    in
    Arg.conv
      (parse, fun fmt s -> Format.pp_print_string fmt (Explore.Sampler.to_string s))
  in
  let objective_conv =
    let parse s =
      match Explore.Objective.find s with
      | o -> Ok o
      | exception Invalid_argument msg -> Error (`Msg msg)
    in
    Arg.conv
      (parse, fun fmt (o : Explore.Objective.t) ->
        Format.pp_print_string fmt o.Explore.Objective.name)
  in
  let space_arg =
    Arg.(
      value
      & opt (some space_conv) None
      & info [ "space" ] ~docv:"SPACE"
          ~doc:
            (Printf.sprintf
               "The design space: comma-separated $(i,axis)=$(i,spec) \
                bindings where spec is $(i,lo:hi:step) or explicit levels \
                $(i,v|v|...). Example: \
                $(b,vgic.save=2000:4375:625,lr_count=2|4,hyp=kvm|xen). Use \
                $(b,--knobs) to list axis names. An axis may have at most \
                %d levels, and a sweep may evaluate at most %d points (the \
                full product for $(b,grid))."
               Explore.Space.max_levels Explore.Sampler.max_points))
  in
  let sampler_arg =
    Arg.(
      value
      & opt sampler_conv Explore.Sampler.Grid
      & info [ "sampler" ] ~docv:"SAMPLER"
          ~doc:
            "$(b,grid) (full cartesian product), $(b,lhs:N) (seeded Latin \
             hypercube, N samples) or $(b,oat) (one-at-a-time sensitivity \
             design).")
  in
  let objectives_arg =
    Arg.(
      value
      & opt_all objective_conv []
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:
            "Objective to evaluate at each point (repeatable; default \
             $(b,hypercall)). Use $(b,--objectives) to list.")
  in
  let format_arg =
    table_format_arg
      ~doc:
        "$(b,md) (markdown report with Pareto frontier and, for oat runs, \
         the sensitivity ranking) or $(b,csv) (one row per point with a \
         pareto 0/1 column)."
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"RNG seed for lhs sampling and calibration restarts.")
  in
  let calibrate_arg =
    Arg.(
      value & flag
      & info [ "calibrate" ]
          ~doc:
            "Instead of sweeping, search the space for the point optimizing \
             the (single) objective — coordinate descent with seeded \
             random restarts. Pair with an error objective \
             ($(b,hypercall-err), $(b,table2-err)) to recover cost-model \
             constants from the paper's targets.")
  in
  let restarts_arg =
    Arg.(
      value & opt positive_int 3
      & info [ "restarts" ] ~docv:"N" ~doc:"Calibration restarts.")
  in
  let knobs_arg =
    Arg.(value & flag & info [ "knobs" ] ~doc:"List the axis names and exit.")
  in
  let objectives_list_arg =
    Arg.(
      value & flag & info [ "objectives" ] ~doc:"List the objectives and exit.")
  in
  let run space sampler objectives out format seed calibrate restarts knobs
      objectives_list jobs trace_file =
    if knobs then
      List.iter
        (fun (n, d) -> Printf.printf "  %-18s %s\n" n d)
        Explore.Config.knobs
    else if objectives_list then
      List.iter
        (fun (o : Explore.Objective.t) ->
          Printf.printf "  %-15s %-10s %s %s\n" o.Explore.Objective.name
            (Printf.sprintf "[%s]" o.Explore.Objective.unit_)
            (match o.Explore.Objective.direction with
            | Explore.Objective.Min -> "min"
            | Explore.Objective.Max -> "max")
            o.Explore.Objective.doc)
        Explore.Objective.all
    else
      match space with
      | None -> reject "missing --space (try --knobs for axis names)"
      | Some space ->
          (match
             if calibrate then Explore.Space.check space
             else Explore.Sampler.check sampler space
           with
          | Ok () -> ()
          | Error msg -> reject "invalid --space: %s" msg);
          let objectives =
            match objectives with
            | [] -> [ Explore.Objective.find "hypercall" ]
            | l -> l
          in
          let base = Explore.Config.default in
          (* Apply every point before evaluating any, so a bad level is
             rejected up front. Calibration visits combinations of axis
             levels; the knobs validate independently, so the
             one-at-a-time design, which holds every level, covers
             them. *)
          (match
             List.iter
               (fun point -> ignore (Explore.Config.apply_point base point))
               (Explore.Sampler.points
                  (if calibrate then Explore.Sampler.Oat else sampler)
                  ~seed space)
           with
          | () -> ()
          | exception Invalid_argument msg -> reject "invalid --space: %s" msg);
          let out = open_output out in
          with_session ~context:"explore"
            { jobs; trace_file; stat_file = None }
          @@ fun () ->
          if calibrate then begin
            let objective = List.hd objectives in
            let r =
              Explore.Calibrate.search ~restarts ~seed ~base ~objective space
            in
            write_out out (fun ppf ->
                Format.fprintf ppf
                  "calibrated %s (%s, %d evaluations, %d sweeps)@."
                  objective.Explore.Objective.name
                  objective.Explore.Objective.unit_
                  r.Explore.Calibrate.evaluations r.Explore.Calibrate.sweeps;
                Format.fprintf ppf "  best: %s@."
                  (Explore.Space.point_to_string r.Explore.Calibrate.best);
                Format.fprintf ppf "  value: %.6g %s@."
                  r.Explore.Calibrate.best_value
                  objective.Explore.Objective.unit_)
          end
          else begin
            let sweep =
              Explore.Sweep.run ~seed ~base ~sampler ~objectives space
            in
            write_out out (fun fmt ->
                match format with
                | `Csv -> Explore.Sweep.pp_csv fmt sweep
                | `Md -> Explore.Sweep.pp_markdown fmt sweep)
          end
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Sweep or calibrate the design space: cost-model constants, \
          tuning knobs and hypervisor choice")
    Term.(
      const run $ space_arg $ sampler_arg $ objectives_arg $ out_arg
      $ format_arg $ seed_arg $ calibrate_arg $ restarts_arg $ knobs_arg
      $ objectives_list_arg $ jobs_arg $ trace_file_arg)

(* --- migrate --------------------------------------------------------------- *)

module Migrate = Armvirt_migrate

let migrate_cmd =
  let module Plan = Migrate.Plan in
  let opt_int names default docv doc =
    Arg.(value & opt int default & info names ~docv ~doc)
  in
  let opt_float names default docv doc =
    Arg.(value & opt float default & info names ~docv ~doc)
  in
  let d = Plan.default in
  let pages =
    opt_int [ "pages" ] d.Plan.pages "N"
      (Printf.sprintf "Guest memory in pages, at most %d." Plan.max_pages)
  in
  let page_kb =
    opt_int [ "page-kb" ] d.Plan.page_kb "KB"
      (Printf.sprintf "Page granule in KiB, at most %d." Plan.max_page_kb)
  in
  let vcpus =
    opt_int [ "vcpus" ] d.Plan.vcpus "N"
      (Printf.sprintf "VCPUs to pause at blackout, at most %d." Plan.max_vcpus)
  in
  let hot_pages =
    opt_int [ "hot-pages" ] d.Plan.hot_pages "N"
      "Hot working-set size in pages."
  in
  let rate =
    opt_float [ "rate" ] d.Plan.txn_rate_hz "HZ"
      (Printf.sprintf
         "Request arrival rate (each request dirties pages: the dirty rate), \
          at most %.0f."
         Plan.max_txn_rate_hz)
  in
  let bandwidth =
    opt_float [ "bandwidth" ] d.Plan.bandwidth_gbps "GBPS"
      (Printf.sprintf "Migration link bandwidth in Gb/s, at least %g."
         Plan.min_bandwidth_gbps)
  in
  let rounds =
    opt_int [ "rounds" ] d.Plan.max_rounds "N"
      "Pre-copy round cap before forced stop-and-copy."
  in
  let downtime =
    opt_float [ "downtime" ] d.Plan.downtime_target_us "US"
      "Downtime SLO in microseconds (the convergence test)."
  in
  let seed = opt_int [ "seed" ] d.Plan.seed "SEED" "Write-stream RNG seed." in
  let compare =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Run every platform/hypervisor model on the same plan (as \
             parallel runner cells) instead of the single $(b,-p)/$(b,-H) \
             configuration.")
  in
  let detail =
    Arg.(
      value & flag
      & info [ "rounds-detail" ]
          ~doc:"Also print per-round pages/length/p99 for every config.")
  in
  let format_arg =
    Arg.(
      value
      & opt (some table_format) None
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Machine-readable output instead of the text report: $(b,md) \
             or $(b,csv), one row per configuration.")
  in
  let run (platform, hyp) pages page_kb vcpus hot_pages rate bandwidth rounds
      downtime seed compare detail format out session =
    let plan =
      {
        d with
        Plan.pages;
        page_kb;
        vcpus;
        hot_pages;
        txn_rate_hz = rate;
        bandwidth_gbps = bandwidth;
        max_rounds = rounds;
        downtime_target_us = downtime;
        seed;
      }
    in
    (match Plan.validate plan with
    | () -> ()
    | exception Invalid_argument msg -> reject "invalid plan: %s" msg);
    let out = open_output out in
    with_session ~context:"migrate" session @@ fun () ->
    let results =
      if compare then Experiment.migrate ~plan ()
      else
        [
          traced_cell "migrate#0.0" (fun () ->
              let hypervisor = resolve platform hyp in
              (hypervisor.Hypervisor.name, W.Migration.run ~plan hypervisor));
        ]
    in
    match format with
    | None ->
        write_out out (fun ppf ->
            Table.text ppf (Report.migrate results);
            if detail then Table.text ppf (Report.migrate_rounds results))
    | Some format -> write_table format out (Report.migrate_fields results)
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:
         "Live-migrate a VM under request load: pre-copy with stage-2 \
          dirty logging, downtime vs the SLO")
    Term.(
      const run $ config_args $ pages $ page_kb $ vcpus $ hot_pages
      $ rate $ bandwidth $ rounds $ downtime $ seed $ compare $ detail
      $ format_arg $ out_arg $ session_args)

(* --- fleet ----------------------------------------------------------------- *)

let fleet_cmd =
  let scenario_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("boot-storm", `Boot);
               ("churn", `Churn);
               ("noisy-neighbor", `Noisy);
             ])
          `Boot
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:
            "$(b,boot-storm) (N guests arrive in a window; time to all \
             ready), $(b,churn) (Poisson arrivals and departures; domid \
             recycling), or $(b,noisy-neighbor) (victim request p99 vs \
             fleet size).")
  in
  let vms_arg =
    Arg.(
      value & opt int 64
      & info [ "vms" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Fleet size: guests in the boot-storm window / at churn \
                start / at the largest noisy-neighbor point; at most %d."
               Fleet.Descriptor.max_vms))
  in
  let mix_arg =
    Arg.(
      value & opt string "synthetic"
      & info [ "profile-mix" ] ~docv:"MIX"
          ~doc:
            "Per-VM workload profiles as $(b,name=share) pairs, e.g. \
             $(b,memcached=2,kernbench=1): any Table IV workload name \
             or $(b,synthetic). Guests cycle through the mix in \
             declared proportion.")
  in
  let format_arg =
    table_format_arg ~doc:"$(b,md) (default) or $(b,csv), one row per cell."
  in
  let run scenario vms mix_spec format out session =
    let mix =
      match W.Fleet_profiles.parse_mix mix_spec with
      | Ok mix -> mix
      | Error e -> reject "invalid --profile-mix: %s" e
    in
    (match Fleet.Descriptor.v ~vms mix with
    | (_ : Fleet.Descriptor.t) -> ()
    | exception Invalid_argument msg -> reject "invalid fleet: %s" msg);
    let out = open_output out in
    with_session ~context:"fleet" session @@ fun () ->
    write_table format out
      (match scenario with
      | `Boot -> Report.fleet_boot_storm (Experiment.fleet_boot_storm ~vms ~mix ())
      | `Churn -> Report.fleet_churn (Experiment.fleet_churn ~vms ~mix ())
      | `Noisy ->
          (* Powers of two up to --vms, so the table reads as a
             victim-p99-vs-fleet-size curve per model. *)
          let sizes =
            let rec up acc n = if n >= vms then List.rev (vms :: acc)
              else up (n :: acc) (n * 2)
            in
            up [] 1
          in
          Report.fleet_noisy (Experiment.fleet_noisy ~sizes ~mix ()))
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Dense multi-VM consolidation on one host: boot-storms, \
          arrival/departure churn and noisy-neighbor tail latency at \
          overcommitted VCPU:PCPU ratios, on every platform/hypervisor \
          model")
    Term.(
      const run $ scenario_arg $ vms_arg $ mix_arg $ format_arg $ out_arg
      $ session_args)

(* --- cluster --------------------------------------------------------------- *)

let cluster_cmd =
  let scenario_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("matrix", `Matrix); ("chain", `Chain); ("loadgen", `Loadgen) ])
          `Matrix
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:
            "$(b,matrix) (iperf-style pairwise VM-to-VM throughput), \
             $(b,chain) (client -> LB -> backend with per-hop latency), \
             or $(b,loadgen) (open-loop tail-latency-vs-offered-load \
             sweep against a memcached-style backend pool).")
  in
  let topology_conv =
    let parse s =
      match Topology.spec_of_string s with
      | spec -> Ok spec
      | exception Invalid_argument msg -> Error (`Msg msg)
    in
    let print fmt s = Format.pp_print_string fmt (Topology.spec_to_string s) in
    Arg.conv (parse, print)
  in
  let topology_arg =
    Arg.(
      value
      & opt topology_conv Topology.Pair
      & info [ "topology" ] ~docv:"TOPO"
          ~doc:
            "$(b,single) (one host), $(b,pair) (two hosts, one 10 GbE \
             uplink each way) or $(b,star)[$(b,:N)] (N leaf hosts through \
             a spine switch). VMs round-robin across hosts.")
  in
  let vms_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "vms" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "VM count: matrix default 4 and at least 2, loadgen \
                backend-pool default 16 (the chain is always client + LB \
                + backend); at most %d."
               Topology.max_vms))
  in
  let loads_conv =
    let parse s =
      try
        Ok
          (List.map
             (fun tok -> float_of_string (String.trim tok))
             (String.split_on_char ',' s))
      with _ -> Error (`Msg (Printf.sprintf "bad load list %S" s))
    in
    let print fmt l =
      Format.pp_print_string fmt
        (String.concat "," (List.map (Printf.sprintf "%g") l))
    in
    Arg.conv (parse, print)
  in
  let loads_arg =
    Arg.(
      value
      & opt loads_conv W.Cluster.default_loads
      & info [ "offered-load" ] ~docv:"L1,L2,..."
          ~doc:
            (Printf.sprintf
               "Loadgen sweep points as fractions of the pool's aggregate \
                native capacity, each from %g to %g; the default tops out \
                at $(b,1.1) — past the knee on every model."
               W.Cluster.min_load W.Cluster.max_load))
  in
  let format_arg = table_format_arg ~doc:"$(b,md) (default) or $(b,csv)." in
  let run scenario spec vms loads format out session =
    (match loads with
    | [] -> reject "--offered-load needs at least one point"
    | l
      when List.exists
             (fun x -> not (x >= W.Cluster.min_load && x <= W.Cluster.max_load))
             l ->
        reject "--offered-load points must be from %g to %g" W.Cluster.min_load
          W.Cluster.max_load
    | _ -> ());
    (match vms with
    | Some n when n > Topology.max_vms ->
        reject "--vms must be at most %d" Topology.max_vms
    | Some n when n < 2 && scenario = `Matrix ->
        reject "--vms must be at least 2 for the matrix scenario"
    | _ -> ());
    let out = open_output out in
    with_session ~context:"cluster" session @@ fun () ->
    match scenario with
    | `Matrix ->
        let vms = Option.value vms ~default:4 in
        let results = Experiment.cluster_matrix ~vms ~spec () in
        write_table format out (Report.cluster_matrix results);
        (* Frames a full egress queue dropped are in no row of the
           table: one line on stderr per config that lost any, as for
           a full trace ring, leaving stdout as it is. *)
        List.iter
          (fun (name, (r : W.Cluster.matrix_result)) ->
            if r.dropped > 0 then
              Printf.eprintf
                "armvirt: warning: config %s dropped %d frames (switch \
                 queue full)\n%!"
                name r.dropped)
          results
    | `Chain ->
        write_table format out
          (Report.cluster_chain (Experiment.cluster_chain ~spec ()))
    | `Loadgen ->
        let vms = Option.value vms ~default:16 in
        write_table format out
          (Report.cluster_loadgen
             (Experiment.cluster_loadgen ~vms ~spec ~loads ()))
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "VM-to-VM and cross-host traffic over the virtual switch \
          fabric: pairwise throughput matrix, client -> LB -> backend \
          service chain, and an open-loop load generator driving a \
          backend pool past its saturation knee, on every \
          platform/hypervisor model")
    Term.(
      const run $ scenario_arg $ topology_arg $ vms_arg $ loads_arg
      $ format_arg $ out_arg $ session_args)

(* --- report ---------------------------------------------------------------- *)

let report_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the markdown report to $(docv) instead of stdout.")
  in
  let run output =
    let output = open_output (Option.value output ~default:"-") in
    let report = Report.markdown () in
    write_out output
      ~detail:(Printf.sprintf " (%d bytes)" (String.length report))
      (fun out -> Format.pp_print_string out report)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Regenerate the paper's tables as a markdown report")
    Term.(const run $ output)

let () =
  let doc =
    "simulation-based reproduction of 'ARM Virtualization: Performance and \
     Architectural Implications' (ISCA 2016)"
  in
  let info = Cmd.info "armvirt" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [
        list_cmd; run_cmd; micro_cmd; app_cmd; rr_cmd; trace_cmd; stat_cmd;
        timeline_cmd; explore_cmd; migrate_cmd; fleet_cmd; cluster_cmd;
        report_cmd;
      ]
  in
  (* A simulation left with blocked processes and no event to wake them
     ran a configuration its model cannot finish: one line naming them
     and exit 2, like any other rejected run. Any other exception is
     still an internal error. *)
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception Armvirt_engine.Sim.Deadlock blocked ->
        Printf.eprintf
          "armvirt: the simulation deadlocked; blocked processes: %s\n%!"
          blocked;
        2
    | exception e ->
        Printf.eprintf "armvirt: internal error, uncaught exception:\n%s\n%s%!"
          (Printexc.to_string e) (Printexc.get_backtrace ());
        Cmd.Exit.internal_error)
