module Netperf = Armvirt_workloads.Netperf

let hline ppf width = Format.fprintf ppf "%s@." (String.make width '-')

let pp_table2 ppf rows =
  Format.fprintf ppf
    "Table II: Microbenchmark Measurements (cycle counts), measured vs \
     paper@.";
  hline ppf 100;
  Format.fprintf ppf "%-26s %17s %17s %17s %17s@." "" "ARM KVM" "ARM Xen"
    "x86 KVM" "x86 Xen";
  Format.fprintf ppf "%-26s %17s %17s %17s %17s@." "Microbenchmark"
    "meas/paper" "meas/paper" "meas/paper" "meas/paper";
  hline ppf 100;
  List.iter
    (fun { Experiment.micro; measured } ->
      let paper = List.assoc micro Paper_data.table2 in
      let cell m p = Printf.sprintf "%d/%d" m p in
      Format.fprintf ppf "%-26s %17s %17s %17s %17s@." micro
        (cell measured.Paper_data.kvm_arm paper.Paper_data.kvm_arm)
        (cell measured.Paper_data.xen_arm paper.Paper_data.xen_arm)
        (cell measured.Paper_data.kvm_x86 paper.Paper_data.kvm_x86)
        (cell measured.Paper_data.xen_x86 paper.Paper_data.xen_x86))
    rows;
  hline ppf 100

let pp_table3 ppf rows =
  Format.fprintf ppf
    "Table III: KVM ARM Hypercall Analysis (cycle counts), measured vs \
     paper@.";
  hline ppf 72;
  Format.fprintf ppf "%-26s %20s %20s@." "Register State" "Save (meas/paper)"
    "Restore (meas/paper)";
  hline ppf 72;
  List.iter
    (fun (cls, save, restore) ->
      let _, psave, prestore =
        List.find (fun (name, _, _) -> name = cls) Paper_data.table3
      in
      Format.fprintf ppf "%-26s %20s %20s@." cls
        (Printf.sprintf "%d/%d" save psave)
        (Printf.sprintf "%d/%d" restore prestore))
    rows;
  hline ppf 72

let pp_table5 ppf results =
  Format.fprintf ppf
    "Table V: Netperf TCP_RR Analysis on ARM, measured (paper in \
     parentheses)@.";
  hline ppf 86;
  Format.fprintf ppf "%-26s %18s %18s %18s@." "" "Native" "KVM" "Xen";
  hline ppf 86;
  let get name = List.assoc name results in
  let native = get "Native" and kvm = get "KVM" and xen = get "Xen" in
  let paper metric =
    List.find (fun r -> r.Paper_data.metric = metric) Paper_data.table5
  in
  let row metric value =
    let p = paper metric in
    let cell v pv =
      match (v, pv) with
      | None, _ -> "-"
      | Some v, Some pv -> Printf.sprintf "%.1f (%.1f)" v pv
      | Some v, None -> Printf.sprintf "%.1f" v
    in
    Format.fprintf ppf "%-26s %18s %18s %18s@." metric
      (cell (value native) p.Paper_data.native)
      (cell (value kvm) p.Paper_data.kvm)
      (cell (value xen) p.Paper_data.xen)
  in
  row "Trans/s" (fun r -> Some r.Netperf.trans_per_sec);
  row "Time/trans (us)" (fun r -> Some r.Netperf.time_per_trans_us);
  (* Overheads below the table's rounding resolution print as blank. *)
  let round_cutoff_us = 0.05 in
  row "Overhead (us)" (fun r ->
      if r.Netperf.overhead_us < round_cutoff_us then None
      else Some r.Netperf.overhead_us);
  row "send to recv (us)" (fun r -> Some r.Netperf.send_to_recv_us);
  row "recv to send (us)" (fun r -> Some r.Netperf.recv_to_send_us);
  row "recv to VM recv (us)" (fun r -> r.Netperf.recv_to_vm_recv_us);
  row "VM recv to VM send (us)" (fun r -> r.Netperf.vm_recv_to_vm_send_us);
  row "VM send to send (us)" (fun r -> r.Netperf.vm_send_to_send_us);
  hline ppf 86

let pp_fig4 ppf rows =
  Format.fprintf ppf
    "Figure 4: Application Benchmark Performance (normalized to native, \
     lower is better), measured (paper in parentheses; paper bars are \
     approximate reads except where the text states values)@.";
  hline ppf 108;
  Format.fprintf ppf "%-14s %22s %22s %22s %22s@." "Workload" "ARM KVM"
    "ARM Xen" "x86 KVM" "x86 Xen";
  hline ppf 108;
  List.iter
    (fun { Experiment.workload; values } ->
      let paper =
        List.find (fun e -> e.Paper_data.workload = workload) Paper_data.fig4
      in
      let cell v pv =
        match (v, pv) with
        | None, None -> "n/a (n/a)"
        | None, Some p -> Printf.sprintf "n/a (%.2f)" p
        | Some v, None -> Printf.sprintf "%.2f (n/a)" v
        | Some v, Some p -> Printf.sprintf "%.2f (%.2f)" v p
      in
      Format.fprintf ppf "%-14s %22s %22s %22s %22s@." workload
        (cell values.Experiment.q_kvm_arm paper.Paper_data.f_kvm_arm)
        (cell values.Experiment.q_xen_arm paper.Paper_data.f_xen_arm)
        (cell values.Experiment.q_kvm_x86 paper.Paper_data.f_kvm_x86)
        (cell values.Experiment.q_xen_x86 paper.Paper_data.f_xen_x86))
    rows;
  hline ppf 108;
  Format.fprintf ppf
    "Note: Apache on Xen x86 is n/a in the paper too — it caused a Dom0 \
     kernel panic (section V).@."

let pp_vhe ppf rows =
  Format.fprintf ppf
    "Section VI: microbenchmarks under ARMv8.1 VHE (cycle counts)@.";
  hline ppf 86;
  Format.fprintf ppf "%-26s %16s %16s %16s %8s@." "Operation" "KVM split-mode"
    "KVM VHE" "Xen (Type 1)" "speedup";
  hline ppf 86;
  List.iter
    (fun { Experiment.operation; kvm_split; kvm_vhe; xen_baseline } ->
      let speedup =
        if kvm_vhe = 0 then 1.0
        else float_of_int kvm_split /. float_of_int kvm_vhe
      in
      Format.fprintf ppf "%-26s %16d %16d %16d %7.1fx@." operation kvm_split
        kvm_vhe xen_baseline speedup)
    rows;
  hline ppf 86

let pp_vhe_app ppf rows =
  Format.fprintf ppf
    "Section VI: predicted application impact of VHE (normalized \
     performance)@.";
  hline ppf 70;
  Format.fprintf ppf "%-14s %18s %14s %18s@." "Workload" "KVM split-mode"
    "KVM VHE" "improvement";
  hline ppf 70;
  List.iter
    (fun (w, split, vhe) ->
      Format.fprintf ppf "%-14s %18.2f %14.2f %17.1f%%@." w split vhe
        ((split -. vhe) /. split *. 100.0))
    rows;
  hline ppf 70

let pp_irqdist ppf groups =
  Format.fprintf ppf
    "Section V ablation: distributing virtual interrupts across VCPUs \
     (overhead %%, measured vs paper)@.";
  hline ppf 86;
  List.iter
    (fun (hyp, rows) ->
      let paper_single w field =
        let _, q = List.find (fun (n, _) -> n = w) Paper_data.irqdist_ablation in
        field q
      in
      List.iter
        (fun { Experiment.ablation_workload = w; single_pct; distributed_pct } ->
          let psingle, pdist =
            if hyp = "KVM ARM" then
              ( paper_single w (fun q -> q.Paper_data.kvm_arm),
                paper_single w (fun q -> q.Paper_data.kvm_x86) )
            else
              ( paper_single w (fun q -> q.Paper_data.xen_arm),
                paper_single w (fun q -> q.Paper_data.xen_x86) )
          in
          Format.fprintf ppf
            "%-10s %-11s single VCPU: %5.1f%% (paper %d%%)   distributed: \
             %5.1f%% (paper %d%%)@."
            hyp w single_pct psingle distributed_pct pdist)
        rows)
    groups;
  hline ppf 86

let pp_pinning ppf rows =
  Format.fprintf ppf
    "Section IV check: Xen ARM I/O latency vs VCPU pinning (cycle \
     counts; paper: shared pinning was 'similar or worse')@.";
  hline ppf 86;
  List.iter
    (fun (config, io_out, io_in) ->
      Format.fprintf ppf "%-46s out: %6d   in: %6d@." config io_out io_in)
    rows;
  hline ppf 86

let pp_oversub ppf groups =
  Format.fprintf ppf
    "Extension: oversubscription — the VM Switch cost at application \
     level (4 PCPUs, CPU-bound VMs)@.";
  hline ppf 96;
  Format.fprintf ppf "%-10s %4s %10s %12s %14s %12s@." "Hypervisor" "VMs"
    "slice(ms)" "switches" "switch cost" "overhead";
  hline ppf 96;
  List.iter
    (fun (hyp, rows) ->
      List.iter
        (fun (r : Armvirt_workloads.Oversub.result) ->
          Format.fprintf ppf "%-10s %4d %10.1f %12d %11d cyc %11.2f%%@." hyp
            r.Armvirt_workloads.Oversub.vms r.timeslice_ms r.context_switches
            r.switch_cost_cycles r.overhead_pct)
        rows)
    groups;
  hline ppf 96

let pp_disk ppf rows =
  Format.fprintf ppf
    "Extension: paravirtual block I/O (fio-style, queue depth 1)@.";
  hline ppf 100;
  Format.fprintf ppf "%-44s %12s %12s %12s %12s@." "Configuration"
    "4K read" "4K write" "seq MB/s" "added us";
  hline ppf 100;
  List.iter
    (fun (r : Armvirt_workloads.Diskbench.result) ->
      Format.fprintf ppf "%-44s %9.1f us %9.1f us %12.0f %12.1f@."
        r.Armvirt_workloads.Diskbench.config r.rand_read_us r.rand_write_us
        r.seq_read_mb_s r.virt_added_us)
    rows;
  hline ppf 100

let pp_tail ppf groups =
  Format.fprintf ppf
    "Extension: open-loop tail latency (Poisson arrivals at a fraction \
     of native capacity)@.";
  hline ppf 96;
  Format.fprintf ppf "%-8s %-10s %10s %10s %10s %10s %12s@." "load" "config"
    "mean us" "p50 us" "p95 us" "p99 us" "utilization";
  hline ppf 96;
  List.iter
    (fun (load, rows) ->
      List.iter
        (fun (r : Armvirt_workloads.Tail_latency.result) ->
          Format.fprintf ppf "%-8.1f %-10s %10.1f %10.1f %10.1f %10.1f %11.0f%%@."
            load r.Armvirt_workloads.Tail_latency.config r.mean_us r.p50_us
            r.p95_us r.p99_us (100.0 *. r.utilization))
        rows)
    groups;
  hline ppf 96

let pp_coldstart ppf rows =
  Format.fprintf ppf
    "Extension: cold-start stage-2 faulting (the start-up cost section V \
     sets aside)@.";
  hline ppf 92;
  Format.fprintf ppf "%-16s %8s %8s %8s %14s %10s@." "Configuration" "pages"
    "faults" "warm" "cycles/fault" "total ms";
  hline ppf 92;
  List.iter
    (fun (r : Armvirt_workloads.Coldstart.result) ->
      Format.fprintf ppf "%-16s %8d %8d %8d %14d %10.2f@."
        r.Armvirt_workloads.Coldstart.config r.pages r.faults r.warm_faults
        r.per_fault_cycles r.total_ms)
    rows;
  hline ppf 92

let pp_lrs ppf groups =
  Format.fprintf ppf
    "Extension: vGIC list-register sensitivity (bursts of 12 distinct \
     interrupts)@.";
  hline ppf 92;
  Format.fprintf ppf "%-10s %6s %14s %18s %18s@." "Hypervisor" "LRs"
    "maintenance" "overhead cycles" "cycles/interrupt";
  hline ppf 92;
  List.iter
    (fun (hyp, rows) ->
      List.iter
        (fun (r : Armvirt_workloads.Lr_sensitivity.result) ->
          Format.fprintf ppf "%-10s %6d %14d %18d %18.1f@." hyp
            r.Armvirt_workloads.Lr_sensitivity.num_lrs r.maintenance_rounds
            r.overhead_cycles r.cycles_per_interrupt)
        rows)
    groups;
  hline ppf 92

(* One row per configuration, one column per Table II operation (short
   names), cycles in each cell: the shared layout of gicv3, vapic and
   lazyswitch. *)
let short_op = function
  | "Interrupt Controller Trap" -> "ICT"
  | "Virtual IPI" -> "vIPI"
  | "Virtual IRQ Completion" -> "vIRQ-EOI"
  | "VM Switch" -> "VM-Switch"
  | "I/O Latency Out" -> "IO-Out"
  | "I/O Latency In" -> "IO-In"
  | other -> other

let pp_op_matrix ~title ~label_width ~cell_width ~rule ppf groups =
  Format.fprintf ppf "%s@." title;
  hline ppf rule;
  (match groups with
  | (_, rows) :: _ ->
      Format.fprintf ppf "%-*s" label_width "";
      List.iter
        (fun (op, _) -> Format.fprintf ppf " %*s" cell_width (short_op op))
        rows;
      Format.fprintf ppf "@."
  | [] -> ());
  hline ppf rule;
  List.iter
    (fun (label, rows) ->
      Format.fprintf ppf "%-*s" label_width label;
      List.iter
        (fun (_, cycles) -> Format.fprintf ppf " %*d" cell_width cycles)
        rows;
      Format.fprintf ppf "@.")
    groups;
  hline ppf rule

let pp_gicv3 =
  pp_op_matrix
    ~title:
      "Extension: GICv2 vs GICv3 — how much of Table II is the X-Gene's \
       slow GIC interface"
    ~label_width:24 ~cell_width:10 ~rule:108

let pp_ticks ppf rows =
  Format.fprintf ppf
    "Extension: virtual-timer tick overhead (section II: virtual timer      expiry traps to the hypervisor)@.";
  hline ppf 84;
  Format.fprintf ppf "%-16s %8s %8s %16s %14s@." "Configuration" "HZ" "ticks"
    "cycles/tick" "VCPU overhead";
  hline ppf 84;
  List.iter
    (fun (r : Armvirt_workloads.Timer_tick.result) ->
      Format.fprintf ppf "%-16s %8d %8d %16d %13.2f%%@."
        r.Armvirt_workloads.Timer_tick.config r.tick_hz r.ticks
        r.cycles_per_tick r.cpu_overhead_pct)
    rows;
  hline ppf 84

let pp_linkspeed ppf rows =
  Format.fprintf ppf
    "Extension: TCP_STREAM vs wire speed (section III: 1 GbE hides the      overhead)@.";
  hline ppf 76;
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %6.2f GbE wire: %8.2f Gb/s  (%.2fx native)@."
        r.Experiment.ls_config r.Experiment.ls_wire_gbps r.Experiment.ls_gbps
        r.Experiment.ls_normalized)
    rows;
  hline ppf 76

let pp_isolation ppf rows =
  Format.fprintf ppf
    "Extension: measurement variability with and without the paper's      isolation discipline (Hypercall samples)@.";
  hline ppf 100;
  Format.fprintf ppf "%-52s %9s %9s %9s %9s@." "Configuration" "median"
    "stddev" "CoV" "worst";
  hline ppf 100;
  List.iter
    (fun (r : Armvirt_workloads.Isolation.result) ->
      Format.fprintf ppf "%-52s %9.0f %9.1f %8.1f%% %9.0f@."
        r.Armvirt_workloads.Isolation.config r.median r.stddev
        (100.0 *. r.coefficient_of_variation)
        r.worst)
    rows;
  hline ppf 100

let pp_multiqueue ppf groups =
  Format.fprintf ppf
    "Extension: virtio-net multiqueue — Apache normalized time vs queue      count (the productized form of the section V ablation)@.";
  hline ppf 72;
  Format.fprintf ppf "%-12s" "queues:";
  (match groups with
  | (_, cells) :: _ ->
      List.iter (fun (q, _) -> Format.fprintf ppf " %8d" q) cells;
      Format.fprintf ppf "@."
  | [] -> ());
  hline ppf 72;
  List.iter
    (fun (name, cells) ->
      Format.fprintf ppf "%-12s" name;
      List.iter (fun (_, v) -> Format.fprintf ppf " %8.2f" v) cells;
      Format.fprintf ppf "@.")
    groups;
  hline ppf 72

let pp_tracereplay ppf groups =
  Format.fprintf ppf
    "Extension: trace replay — a synthetic web mix, per-request      virtualization surcharge@.";
  hline ppf 92;
  List.iter
    (fun (name, (r : Armvirt_workloads.Trace_replay.result)) ->
      Format.fprintf ppf
        "%-10s %6d requests   added CPU %5.1f%%   p99 surcharge %6.1f us@."
        name r.Armvirt_workloads.Trace_replay.replayed r.added_cpu_pct
        r.p99_added_us;
      List.iter
        (fun (cls, count, mean_us) ->
          Format.fprintf ppf "   %-10s %6d requests, mean +%.1f us each@." cls
            count mean_us)
        r.per_class)
    groups;
  hline ppf 92

let pp_twodwalk ppf rows =
  Format.fprintf ppf
    "Extension: nested paging's two-dimensional page walk (TLB-miss      cost)@.";
  hline ppf 96;
  Format.fprintf ppf "%-34s %12s %14s %27s@." "Configuration" "accesses"
    "walk cycles" "@1 miss/10k insns (IPC 1)";
  hline ppf 96;
  List.iter
    (fun r ->
      Format.fprintf ppf "%-34s %12d %14d %25.1f%%@." r.Experiment.tw_config
        r.Experiment.tw_walk_accesses r.Experiment.tw_walk_cycles
        r.Experiment.tw_overhead_pct_at_1_miss_per_1k)
    rows;
  hline ppf 96

let pp_vapic =
  pp_op_matrix
    ~title:
      "Extension: x86 with vAPIC — hardware interrupt completion closes      the gap to ARM (section IV), microbenchmark cycles"
    ~label_width:28 ~cell_width:9 ~rule:112

let pp_vapic_apps ppf rows =
  Format.fprintf ppf "Application impact on KVM x86 (normalized):@.";
  List.iter
    (fun (w, stock, vapic) ->
      Format.fprintf ppf "  %-12s %5.2f -> %5.2f with vAPIC@." w stock vapic)
    rows

let pp_crosscall ppf rows =
  Format.fprintf ppf
    "Extension: guest cross-calls (3-target remote TLB flush) — the      shootdown cost of section V, guest view@.";
  hline ppf 92;
  Format.fprintf ppf "%-16s %16s %16s %24s@." "Configuration" "latency"
    "sender cycles" "ARM broadcast TLBI";
  hline ppf 92;
  List.iter
    (fun (r : Armvirt_workloads.Crosscall.result) ->
      Format.fprintf ppf "%-16s %16d %16d %24s@."
        r.Armvirt_workloads.Crosscall.config r.latency_cycles
        r.sender_cpu_cycles
        (match r.arm_tlbi_alternative with
        | Some c -> Printf.sprintf "%d (no IPIs)" c
        | None -> "n/a (x86)"))
    rows;
  hline ppf 92

let pp_guestops ppf groups =
  Format.fprintf ppf
    "Extension: guest-local operations (cycles) — what virtualization      does NOT cost (section V)@.";
  hline ppf 118;
  Format.fprintf ppf "%-32s" "Operation";
  List.iter (fun (name, _) -> Format.fprintf ppf " %14s" name) groups;
  Format.fprintf ppf "@.";
  hline ppf 118;
  List.iter
    (fun op ->
      Format.fprintf ppf "%-32s" op;
      List.iter
        (fun (_, rows) ->
          let row =
            List.find (fun r -> r.Armvirt_workloads.Guest_ops.op = op) rows
          in
          Format.fprintf ppf " %13d%s" row.Armvirt_workloads.Guest_ops.cycles
            (if row.Armvirt_workloads.Guest_ops.hypervisor_involved then "*"
             else " "))
        groups;
      Format.fprintf ppf "@.")
    Armvirt_workloads.Guest_ops.op_names;
  hline ppf 118;
  Format.fprintf ppf "(*) the operation left the VM.@."

let pp_lazyswitch =
  pp_op_matrix
    ~title:
      "Extension: the post-paper KVM ARM optimizations (lazy state      switching), microbenchmark cycles"
    ~label_width:22 ~cell_width:10 ~rule:108

let pp_consolidation ppf rows =
  Format.fprintf ppf
    "Extension: VM consolidation — N memcached VMs per host (kilo-ops/s)@.";
  hline ppf 92;
  Format.fprintf ppf "%-10s %6s %14s %16s %22s@." "Config" "VMs" "per VM"
    "aggregate" "bottleneck";
  hline ppf 92;
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %6d %14.0f %16.0f %22s@."
        r.Experiment.cons_config r.Experiment.cons_vms
        r.Experiment.cons_per_vm_ops r.Experiment.cons_aggregate_ops
        r.Experiment.cons_bottleneck)
    rows;
  hline ppf 92

let pp_structural ppf rows =
  Format.fprintf ppf
    "Cross-validation: structural end-to-end stacks (lib/system) vs the      analytic models@.";
  hline ppf 92;
  Format.fprintf ppf "%-10s %-22s %12s %12s %12s@." "Config" "Metric"
    "structural" "analytic" "agreement";
  hline ppf 92;
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %-22s %12.2f %12.2f %11.0f%%@."
        r.Experiment.st_config r.Experiment.st_metric
        r.Experiment.st_structural r.Experiment.st_analytic
        r.Experiment.st_agreement_pct)
    rows;
  hline ppf 92

let pp_fig4_chart ppf rows =
  Format.fprintf ppf
    "Figure 4 (ARM columns), drawn: each bar is normalized time, 1.0 =      native; '#' = KVM ARM, '=' = Xen ARM@.";
  hline ppf 96;
  let bar ch v =
    let len = int_of_float (Float.round (v *. 12.0)) in
    String.make (Stdlib.min 60 len) ch
  in
  List.iter
    (fun { Experiment.workload; values } ->
      (match values.Experiment.q_kvm_arm with
      | Some v -> Format.fprintf ppf "%-12s %5.2f |%s@." workload v (bar '#' v)
      | None -> Format.fprintf ppf "%-12s   n/a |@." workload);
      match values.Experiment.q_xen_arm with
      | Some v -> Format.fprintf ppf "%-12s %5.2f |%s@." "" v (bar '=' v)
      | None -> Format.fprintf ppf "%-12s   n/a |@." "")
    rows;
  hline ppf 96

let pp_zerocopy ppf rows =
  Format.fprintf ppf
    "Section V what-if: Xen ARM TCP_STREAM with grant copy vs broadcast-\
     TLBI zero copy@.";
  hline ppf 86;
  List.iter
    (fun { Experiment.zc_config; stream_gbps; stream_norm } ->
      Format.fprintf ppf "%-58s %6.2f Gb/s  (%.2fx native time)@." zc_config
        stream_gbps stream_norm)
    rows;
  hline ppf 86

let pp_migrate ppf rows =
  (match rows with
  | (_, (r : Armvirt_workloads.Migration.result)) :: _ ->
      Format.fprintf ppf
        "Extension: live migration under request load — pre-copy with \
         stage-2 dirty logging@.";
      Format.fprintf ppf "Plan: %a@." Armvirt_migrate.Plan.pp
        r.Armvirt_workloads.Migration.plan
  | [] -> ());
  hline ppf 108;
  Format.fprintf ppf "%-14s %6s %9s %12s %7s %7s %6s %5s %13s %9s@." "Config"
    "rounds" "total ms" "downtime us" "sent" "resent" "final" "conv"
    "worst p99 us" "p99 x";
  hline ppf 108;
  List.iter
    (fun (name, (r : Armvirt_workloads.Migration.result)) ->
      Format.fprintf ppf
        "%-14s %6d %9.2f %12.1f %7d %7d %6d %5b %13.1f %8.1fx@." name
        r.Armvirt_workloads.Migration.precopy_rounds r.total_ms r.downtime_us
        r.pages_sent r.pages_resent r.final_pages r.converged r.worst_p99_us
        r.p99_degradation)
    rows;
  hline ppf 108;
  Format.fprintf ppf
    "(downtime = stop-and-copy blackout; p99 x = worst pre-copy round \
     request p99 over the %.1f us idle baseline)@."
    (match rows with
    | (_, r) :: _ -> r.Armvirt_workloads.Migration.baseline_p99_us
    | [] -> 0.0)

let pp_migrate_rounds ppf rows =
  Format.fprintf ppf
    "Per-round RR degradation (pages shipped, round length, request p99):@.";
  hline ppf 96;
  List.iter
    (fun (name, (r : Armvirt_workloads.Migration.result)) ->
      Format.fprintf ppf "%-14s baseline p99 %.1f us@." name
        r.Armvirt_workloads.Migration.baseline_p99_us;
      List.iter
        (fun (round : Armvirt_migrate.Precopy.round) ->
          let p99 = round.Armvirt_migrate.Precopy.p99_us in
          Format.fprintf ppf
            "  round %2d: %5d pages %10.1f us   p99 %s@."
            round.Armvirt_migrate.Precopy.index
            round.Armvirt_migrate.Precopy.pages
            round.Armvirt_migrate.Precopy.duration_us
            (if Float.is_nan p99 then "-"
             else
               Printf.sprintf "%8.1f us (%.1fx)" p99
                 (p99 /. r.Armvirt_workloads.Migration.baseline_p99_us)))
        r.Armvirt_workloads.Migration.rounds;
      Format.fprintf ppf "  blackout: %.1f us   post-resume p99 %.1f us@."
        r.Armvirt_workloads.Migration.downtime_us
        r.Armvirt_workloads.Migration.post_p99_us)
    rows;
  hline ppf 96

(* --- generic machine-readable tables --------------------------------- *)

(* lib/explore's sweep reports and the CLI's md/csv tables go through
   these two emitters, so every tabular artifact renders in one place. *)
let pp_csv_row ppf cells =
  Format.fprintf ppf "%s@." (String.concat "," (List.map Armvirt_obs.Export.escape_csv cells))

let pp_csv_table ppf ~header rows =
  pp_csv_row ppf header;
  List.iter (pp_csv_row ppf) rows

let pp_markdown_table ppf ~header rows =
  let md_field s =
    String.concat "\\|" (String.split_on_char '|' s)
  in
  let row cells =
    Format.fprintf ppf "| %s |@."
      (String.concat " | " (List.map md_field cells))
  in
  row header;
  Format.fprintf ppf "|%s@."
    (String.concat "|" (List.map (fun _ -> "---") header) ^ "|");
  List.iter row rows

(* --- the experiment registry ------------------------------------------ *)

type entry = { id : string; doc : string; run : Format.formatter -> unit }

let entry id doc run = { id; doc; run }

let registry =
  [
    entry "table2" "Table II: the seven microbenchmarks on all four hypervisors"
      (fun ppf -> pp_table2 ppf (Experiment.table2 ()));
    entry "table3" "Table III: KVM ARM hypercall save/restore decomposition"
      (fun ppf -> pp_table3 ppf (Experiment.table3 ()));
    entry "table5" "Table V: Netperf TCP_RR latency analysis on ARM"
      (fun ppf -> pp_table5 ppf (Experiment.table5 ()));
    entry "fig4" "Figure 4: application benchmark performance, normalized"
      (fun ppf -> pp_fig4 ppf (Experiment.fig4 ()));
    entry "vhe" "Section VI: ARMv8.1 VHE microbenchmarks and app predictions"
      (fun ppf ->
        pp_vhe ppf (Experiment.vhe ());
        pp_vhe_app ppf (Experiment.vhe_app ()));
    entry "irqdist" "Section V ablation: distributing virtual interrupts"
      (fun ppf -> pp_irqdist ppf (Experiment.irqdist ()));
    entry "pinning" "Section IV check: Xen I/O latency vs pinning"
      (fun ppf -> pp_pinning ppf (Experiment.pinning ()));
    entry "zerocopy" "Section V what-if: Xen zero copy on ARM" (fun ppf ->
        pp_zerocopy ppf (Experiment.zerocopy ());
        Format.fprintf ppf "x86 zero-copy break-even: %d bytes@."
          (Experiment.x86_zero_copy_break_even ()));
    entry "oversub" "Extension: VM Switch cost under oversubscription"
      (fun ppf -> pp_oversub ppf (Experiment.oversub ()));
    entry "disk" "Extension: paravirtual block I/O latency/throughput"
      (fun ppf -> pp_disk ppf (Experiment.disk ()));
    entry "tail" "Extension: open-loop tail latency percentiles" (fun ppf ->
        pp_tail ppf (Experiment.tail ()));
    entry "coldstart" "Extension: cold-start stage-2 faulting" (fun ppf ->
        pp_coldstart ppf (Experiment.coldstart ()));
    entry "lrs" "Extension: vGIC list-register sensitivity" (fun ppf ->
        pp_lrs ppf (Experiment.lrs ()));
    entry "gicv3" "Extension: GICv2 vs GICv3 interrupt-controller ablation"
      (fun ppf -> pp_gicv3 ppf (Experiment.gicv3 ()));
    entry "ticks" "Extension: virtual-timer tick overhead per guest HZ"
      (fun ppf -> pp_ticks ppf (Experiment.ticks ()));
    entry "linkspeed" "Extension: TCP_STREAM at 1 vs 10 GbE wire speed"
      (fun ppf -> pp_linkspeed ppf (Experiment.linkspeed ()));
    entry "isolation" "Extension: measurement variability without isolation"
      (fun ppf -> pp_isolation ppf (Experiment.isolation ()));
    entry "structural" "Cross-validation: structural stacks vs analytic models"
      (fun ppf -> pp_structural ppf (Experiment.structural ()));
    entry "lazyswitch" "Extension: post-paper lazy state-switching optimizations"
      (fun ppf -> pp_lazyswitch ppf (Experiment.lazyswitch ()));
    entry "guestops" "Extension: guest-local operation costs (what stays native)"
      (fun ppf -> pp_guestops ppf (Experiment.guestops ()));
    entry "crosscall" "Extension: guest broadcast cross-call (TLB shootdown) cost"
      (fun ppf -> pp_crosscall ppf (Experiment.crosscall ()));
    entry "vapic" "Extension: x86 with vAPIC (hardware interrupt completion)"
      (fun ppf ->
        pp_vapic ppf (Experiment.vapic ());
        pp_vapic_apps ppf (Experiment.vapic_apps ()));
    entry "twodwalk" "Extension: nested paging's 24-access 2D page walk"
      (fun ppf -> pp_twodwalk ppf (Experiment.twodwalk ()));
    entry "multiqueue" "Extension: virtio-net multiqueue vs the IRQ bottleneck"
      (fun ppf -> pp_multiqueue ppf (Experiment.multiqueue ()));
    entry "tracereplay" "Extension: synthetic trace replay, per-request surcharges"
      (fun ppf -> pp_tracereplay ppf (Experiment.tracereplay ()));
    entry "consolidation" "Extension: VM density (N memcached VMs per host)"
      (fun ppf -> pp_consolidation ppf (Experiment.consolidation ()));
    entry "migrate" "Extension: live-migration downtime/SLO under request load"
      (fun ppf -> pp_migrate ppf (Experiment.migrate ()));
    entry "fig4chart" "Figure 4 as ASCII bars (ARM columns)" (fun ppf ->
        pp_fig4_chart ppf (Experiment.fig4 ()));
  ]

let find id = List.find_opt (fun e -> e.id = id) registry
