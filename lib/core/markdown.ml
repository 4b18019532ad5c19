module Netperf = Armvirt_workloads.Netperf

(* A heading, a blank line, then the table. *)
let section heading ~header rows =
  Format.asprintf "%s\n\n%a" heading
    (fun ppf rows -> Report.pp_markdown_table ppf ~header rows)
    rows

let table2 () =
  section "## Table II — microbenchmarks (cycles, measured / paper)"
    ~header:[ "Microbenchmark"; "ARM KVM"; "ARM Xen"; "x86 KVM"; "x86 Xen" ]
    (List.map
       (fun { Experiment.micro; measured } ->
         let paper = List.assoc micro Paper_data.table2 in
         let cell m p = Printf.sprintf "%d / %d" m p in
         [
           micro;
           cell measured.Paper_data.kvm_arm paper.Paper_data.kvm_arm;
           cell measured.Paper_data.xen_arm paper.Paper_data.xen_arm;
           cell measured.Paper_data.kvm_x86 paper.Paper_data.kvm_x86;
           cell measured.Paper_data.xen_x86 paper.Paper_data.xen_x86;
         ])
       (Experiment.table2 ()))

let table3 () =
  section "## Table III — KVM ARM hypercall decomposition (cycles)"
    ~header:[ "Register state"; "Save"; "Restore" ]
    (List.map
       (fun (cls, save, restore) ->
         [ cls; string_of_int save; string_of_int restore ])
       (Experiment.table3 ()))

let table5 () =
  let results = Experiment.table5 () in
  let native = List.assoc "Native" results in
  let kvm = List.assoc "KVM" results in
  let xen = List.assoc "Xen" results in
  let paper metric =
    List.find (fun r -> r.Paper_data.metric = metric) Paper_data.table5
  in
  let cell v pv =
    match (v, pv) with
    | None, _ -> "—"
    | Some v, Some p -> Printf.sprintf "%.1f (%.1f)" v p
    | Some v, None -> Printf.sprintf "%.1f" v
  in
  let row (metric, value) =
    let p = paper metric in
    [
      metric;
      cell (value native) p.Paper_data.native;
      cell (value kvm) p.Paper_data.kvm;
      cell (value xen) p.Paper_data.xen;
    ]
  in
  section
    "## Table V — Netperf TCP_RR on ARM (μs, measured; paper in parentheses)"
    ~header:[ "Metric"; "Native"; "KVM"; "Xen" ]
    (List.map row
       [
         ("Trans/s", fun r -> Some r.Netperf.trans_per_sec);
         ("Time/trans (us)", fun r -> Some r.Netperf.time_per_trans_us);
         ("send to recv (us)", fun r -> Some r.Netperf.send_to_recv_us);
         ("recv to send (us)", fun r -> Some r.Netperf.recv_to_send_us);
         ("recv to VM recv (us)", fun r -> r.Netperf.recv_to_vm_recv_us);
         ("VM recv to VM send (us)", fun r -> r.Netperf.vm_recv_to_vm_send_us);
         ("VM send to send (us)", fun r -> r.Netperf.vm_send_to_send_us);
       ])

let fig4 () =
  let cell v p =
    match (v, p) with
    | None, None -> "n/a"
    | None, Some p -> Printf.sprintf "n/a (%.2f)" p
    | Some v, None -> Printf.sprintf "%.2f (n/a)" v
    | Some v, Some p -> Printf.sprintf "%.2f (%.2f)" v p
  in
  section
    "## Figure 4 — application benchmarks (normalized, measured / paper)"
    ~header:[ "Workload"; "ARM KVM"; "ARM Xen"; "x86 KVM"; "x86 Xen" ]
    (List.map
       (fun { Experiment.workload; values } ->
         let paper =
           List.find (fun e -> e.Paper_data.workload = workload) Paper_data.fig4
         in
         [
           workload;
           cell values.Experiment.q_kvm_arm paper.Paper_data.f_kvm_arm;
           cell values.Experiment.q_xen_arm paper.Paper_data.f_xen_arm;
           cell values.Experiment.q_kvm_x86 paper.Paper_data.f_kvm_x86;
           cell values.Experiment.q_xen_x86 paper.Paper_data.f_xen_x86;
         ])
       (Experiment.fig4 ()))

let vhe () =
  section "## Section VI — ARMv8.1 VHE (microbenchmark cycles)"
    ~header:[ "Operation"; "KVM split-mode"; "KVM VHE"; "Xen"; "speedup" ]
    (List.map
       (fun { Experiment.operation; kvm_split; kvm_vhe; xen_baseline } ->
         [
           operation;
           string_of_int kvm_split;
           string_of_int kvm_vhe;
           string_of_int xen_baseline;
           Printf.sprintf "%.1fx" (float_of_int kvm_split /. float_of_int kvm_vhe);
         ])
       (Experiment.vhe ()))

let full_report () =
  String.concat "\n"
    [
      "# armvirt — live results\n";
      "Regenerated by `armvirt report` from a fresh simulation run.\n\
       Every number is deterministic; paper values in parentheses.\n";
      table2 ();
      table3 ();
      table5 ();
      fig4 ();
      vhe ();
    ]
