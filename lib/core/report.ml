module Table = Armvirt_obs.Table
module W = Armvirt_workloads
module Fleet = Armvirt_fleet

let left = Table.left
let right = Table.right
let sprintf = Printf.sprintf

(* A text table under a one-line title. *)
let titled ?notes title rule columns rows =
  Table.v ~title:[ title ] ~rule ?notes columns rows

(* A table of lines rather than columns: header-less, its cells padded
   to [widths] and formatted by the builder. *)
let lines ?notes title rule widths rows =
  titled ?notes title rule (List.map (fun w -> left w "") widths) rows

let table2 rows =
  let quad (q : Paper_data.quad) =
    [ q.Paper_data.kvm_arm; q.xen_arm; q.kvm_x86; q.xen_x86 ]
  in
  let config head =
    { Table.head = [ head; "meas/paper" ]; width = 17; align = Table.Right }
  in
  titled
    "Table II: Microbenchmark Measurements (cycle counts), measured vs paper"
    100
    ({ Table.head = [ ""; "Microbenchmark" ]; width = 26; align = Table.Left }
    :: List.map config [ "ARM KVM"; "ARM Xen"; "x86 KVM"; "x86 Xen" ])
    (List.map
       (fun { Experiment.micro; measured } ->
         micro
         :: List.map2 (sprintf "%d/%d") (quad measured)
              (quad (List.assoc micro Paper_data.table2)))
       rows)

let table3 rows =
  titled
    "Table III: KVM ARM Hypercall Analysis (cycle counts), measured vs paper"
    72
    [ left 26 "Register State"; right 20 "Save (meas/paper)";
      right 20 "Restore (meas/paper)" ]
    (List.map
       (fun (cls, save, restore) ->
         let _, psave, prestore =
           List.find (fun (name, _, _) -> name = cls) Paper_data.table3
         in
         [ cls; sprintf "%d/%d" save psave; sprintf "%d/%d" restore prestore ])
       rows)

let table5 results =
  let get name = List.assoc name results in
  let native = get "Native" and kvm = get "KVM" and xen = get "Xen" in
  let row (metric, value) =
    let p =
      List.find (fun r -> r.Paper_data.metric = metric) Paper_data.table5
    in
    let cell v pv =
      match (v, pv) with
      | None, _ -> "-"
      | Some v, Some pv -> sprintf "%.1f (%.1f)" v pv
      | Some v, None -> sprintf "%.1f" v
    in
    [ metric; cell (value native) p.Paper_data.native; cell (value kvm) p.kvm;
      cell (value xen) p.xen ]
  in
  (* Overheads below the table's rounding resolution print as "-". *)
  let round_cutoff_us = 0.05 in
  titled
    "Table V: Netperf TCP_RR Analysis on ARM, measured (paper in parentheses)"
    86
    [ left 26 ""; right 18 "Native"; right 18 "KVM"; right 18 "Xen" ]
    (List.map row
       W.Netperf.
         [
           ("Trans/s", fun r -> Some r.trans_per_sec);
           ("Time/trans (us)", fun r -> Some r.time_per_trans_us);
           ( "Overhead (us)",
             fun r ->
               if r.overhead_us < round_cutoff_us then None
               else Some r.overhead_us );
           ("send to recv (us)", fun r -> Some r.send_to_recv_us);
           ("recv to send (us)", fun r -> Some r.recv_to_send_us);
           ("recv to VM recv (us)", fun r -> r.recv_to_vm_recv_us);
           ("VM recv to VM send (us)", fun r -> r.vm_recv_to_vm_send_us);
           ("VM send to send (us)", fun r -> r.vm_send_to_send_us);
         ])

let fig4 rows =
  let cell v pv =
    match (v, pv) with
    | None, None -> "n/a (n/a)"
    | None, Some p -> sprintf "n/a (%.2f)" p
    | Some v, None -> sprintf "%.2f (n/a)" v
    | Some v, Some p -> sprintf "%.2f (%.2f)" v p
  in
  titled
    "Figure 4: Application Benchmark Performance (normalized to native, \
     lower is better), measured (paper in parentheses; paper bars are \
     approximate reads except where the text states values)"
    108
    ~notes:
      [ "Note: Apache on Xen x86 is n/a in the paper too — it caused a Dom0 \
         kernel panic (section V)." ]
    [ left 14 "Workload"; right 22 "ARM KVM"; right 22 "ARM Xen";
      right 22 "x86 KVM"; right 22 "x86 Xen" ]
    (List.map
       (fun { Experiment.workload; values = q } ->
         let p =
           List.find (fun e -> e.Paper_data.workload = workload) Paper_data.fig4
         in
         [ workload; cell q.Experiment.q_kvm_arm p.Paper_data.f_kvm_arm;
           cell q.q_xen_arm p.f_xen_arm; cell q.q_kvm_x86 p.f_kvm_x86;
           cell q.q_xen_x86 p.f_xen_x86 ])
       rows)

let vhe rows =
  titled "Section VI: microbenchmarks under ARMv8.1 VHE (cycle counts)" 86
    [ left 26 "Operation"; right 16 "KVM split-mode"; right 16 "KVM VHE";
      right 16 "Xen (Type 1)"; right 8 "speedup" ]
    (List.map
       (fun { Experiment.operation; kvm_split; kvm_vhe; xen_baseline } ->
         let speedup =
           if kvm_vhe = 0 then 1.0
           else float_of_int kvm_split /. float_of_int kvm_vhe
         in
         [ operation; string_of_int kvm_split; string_of_int kvm_vhe;
           string_of_int xen_baseline; sprintf "%.1fx" speedup ])
       rows)

let vhe_app rows =
  titled
    "Section VI: predicted application impact of VHE (normalized \
     performance)"
    70
    [ left 14 "Workload"; right 18 "KVM split-mode"; right 14 "KVM VHE";
      right 18 "improvement" ]
    (List.map
       (fun (w, split, vhe) ->
         [ w; sprintf "%.2f" split; sprintf "%.2f" vhe;
           sprintf "%.1f%%" ((split -. vhe) /. split *. 100.0) ])
       rows)

let irqdist groups =
  lines
    "Section V ablation: distributing virtual interrupts across VCPUs \
     (overhead %, measured vs paper)"
    86 [ 10; 11; 0 ]
    (List.concat_map
       (fun (hyp, rows) ->
         List.map
           (fun { Experiment.ablation_workload = w; single_pct; distributed_pct } ->
             let q = List.assoc w Paper_data.irqdist_ablation in
             let psingle, pdist =
               if hyp = "KVM ARM" then (q.Paper_data.kvm_arm, q.kvm_x86)
               else (q.xen_arm, q.xen_x86)
             in
             [ hyp; w;
               sprintf
                 "single VCPU: %5.1f%% (paper %d%%)   distributed: %5.1f%% \
                  (paper %d%%)"
                 single_pct psingle distributed_pct pdist ])
           rows)
       groups)

let pinning rows =
  lines
    "Section IV check: Xen ARM I/O latency vs VCPU pinning (cycle counts; \
     paper: shared pinning was 'similar or worse')"
    86 [ 46; 0 ]
    (List.map
       (fun (config, io_out, io_in) ->
         [ config; sprintf "out: %6d   in: %6d" io_out io_in ])
       rows)

let zerocopy ~break_even rows =
  lines
    "Section V what-if: Xen ARM TCP_STREAM with grant copy vs \
     broadcast-TLBI zero copy"
    86 [ 58; 0 ]
    ~notes:[ sprintf "x86 zero-copy break-even: %d bytes" break_even ]
    (List.map
       (fun { Experiment.zc_config; stream_gbps; stream_norm } ->
         [ zc_config;
           sprintf "%6.2f Gb/s  (%.2fx native time)" stream_gbps stream_norm ])
       rows)

let oversub groups =
  titled
    "Extension: oversubscription — the VM Switch cost at application level \
     (4 PCPUs, CPU-bound VMs)"
    96
    [ left 10 "Hypervisor"; right 4 "VMs"; right 10 "slice(ms)";
      right 12 "switches"; right 14 "switch cost"; right 12 "overhead" ]
    (List.concat_map
       (fun (hyp, rows) ->
         List.map
           (fun (r : W.Oversub.result) ->
             [ hyp; string_of_int r.W.Oversub.vms;
               sprintf "%.1f" r.timeslice_ms; string_of_int r.context_switches;
               (* 15 wide under its 14-wide head, as it always printed. *)
               sprintf "%11d cyc" r.switch_cost_cycles;
               sprintf "%.2f%%" r.overhead_pct ])
           rows)
       groups)

let disk rows =
  titled "Extension: paravirtual block I/O (fio-style, queue depth 1)" 100
    [ left 44 "Configuration"; right 12 "4K read"; right 12 "4K write";
      right 12 "seq MB/s"; right 12 "added us" ]
    (List.map
       (fun (r : W.Diskbench.result) ->
         [ r.W.Diskbench.config; sprintf "%.1f us" r.rand_read_us;
           sprintf "%.1f us" r.rand_write_us; sprintf "%.0f" r.seq_read_mb_s;
           sprintf "%.1f" r.virt_added_us ])
       rows)

let tail groups =
  titled
    "Extension: open-loop tail latency (Poisson arrivals at a fraction of \
     native capacity)"
    96
    [ left 8 "load"; left 10 "config"; right 10 "mean us"; right 10 "p50 us";
      right 10 "p95 us"; right 10 "p99 us"; right 12 "utilization" ]
    (List.concat_map
       (fun (load, rows) ->
         List.map
           (fun (r : W.Tail_latency.result) ->
             [ sprintf "%.1f" load; r.W.Tail_latency.config;
               sprintf "%.1f" r.mean_us; sprintf "%.1f" r.p50_us;
               sprintf "%.1f" r.p95_us; sprintf "%.1f" r.p99_us;
               sprintf "%.0f%%" (100.0 *. r.utilization) ])
           rows)
       groups)

let coldstart rows =
  titled
    "Extension: cold-start stage-2 faulting (the start-up cost section V \
     sets aside)"
    92
    [ left 16 "Configuration"; right 8 "pages"; right 8 "faults";
      right 8 "warm"; right 14 "cycles/fault"; right 10 "total ms" ]
    (List.map
       (fun (r : W.Coldstart.result) ->
         [ r.W.Coldstart.config; string_of_int r.pages; string_of_int r.faults;
           string_of_int r.warm_faults; string_of_int r.per_fault_cycles;
           sprintf "%.2f" r.total_ms ])
       rows)

let lrs groups =
  titled
    "Extension: vGIC list-register sensitivity (bursts of 12 distinct \
     interrupts)"
    92
    [ left 10 "Hypervisor"; right 6 "LRs"; right 14 "maintenance";
      right 18 "overhead cycles"; right 18 "cycles/interrupt" ]
    (List.concat_map
       (fun (hyp, rows) ->
         List.map
           (fun (r : W.Lr_sensitivity.result) ->
             [ hyp; string_of_int r.W.Lr_sensitivity.num_lrs;
               string_of_int r.maintenance_rounds;
               string_of_int r.overhead_cycles;
               sprintf "%.1f" r.cycles_per_interrupt ])
           rows)
       groups)

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

let op_matrix title ~label_width ~cell_width rule groups =
  let ops = match groups with (_, rows) :: _ -> List.map fst rows | [] -> [] in
  titled title rule
    (left label_width ""
    :: List.map (fun op -> right cell_width (short_op op)) ops)
    (List.map
       (fun (label, rows) ->
         label :: List.map (fun (_, cycles) -> string_of_int cycles) rows)
       groups)

let gicv3 =
  op_matrix
    "Extension: GICv2 vs GICv3 — how much of Table II is the X-Gene's slow \
     GIC interface"
    ~label_width:24 ~cell_width:10 108

let ticks rows =
  titled
    "Extension: virtual-timer tick overhead (section II: virtual timer      expiry traps to the hypervisor)"
    84
    [ left 16 "Configuration"; right 8 "HZ"; right 8 "ticks";
      right 16 "cycles/tick"; right 14 "VCPU overhead" ]
    (List.map
       (fun (r : W.Timer_tick.result) ->
         [ r.W.Timer_tick.config; string_of_int r.tick_hz;
           string_of_int r.ticks; string_of_int r.cycles_per_tick;
           sprintf "%.2f%%" r.cpu_overhead_pct ])
       rows)

let linkspeed rows =
  lines
    "Extension: TCP_STREAM vs wire speed (section III: 1 GbE hides the      overhead)"
    76 [ 10; 0 ]
    (List.map
       (fun r ->
         [ r.Experiment.ls_config;
           sprintf "%6.2f GbE wire: %8.2f Gb/s  (%.2fx native)"
             r.Experiment.ls_wire_gbps r.ls_gbps r.ls_normalized ])
       rows)

let isolation rows =
  titled
    "Extension: measurement variability with and without the paper's      isolation discipline (Hypercall samples)"
    100
    [ left 52 "Configuration"; right 9 "median"; right 9 "stddev";
      right 9 "CoV"; right 9 "worst" ]
    (List.map
       (fun (r : W.Isolation.result) ->
         [ r.W.Isolation.config; sprintf "%.0f" r.median;
           sprintf "%.1f" r.stddev;
           sprintf "%.1f%%" (100.0 *. r.coefficient_of_variation);
           sprintf "%.0f" r.worst ])
       rows)

let multiqueue groups =
  let queues =
    match groups with (_, cells) :: _ -> List.map fst cells | [] -> []
  in
  titled
    "Extension: virtio-net multiqueue — Apache normalized time vs queue      count (the productized form of the section V ablation)"
    72
    (left 12 "queues:" :: List.map (fun q -> right 8 (string_of_int q)) queues)
    (List.map
       (fun (name, cells) ->
         name :: List.map (fun (_, v) -> sprintf "%.2f" v) cells)
       groups)

let tracereplay groups =
  lines
    "Extension: trace replay — a synthetic web mix, per-request      virtualization surcharge"
    92 [ 0 ]
    (List.concat_map
       (fun (name, (r : W.Trace_replay.result)) ->
         [ sprintf
             "%-10s %6d requests   added CPU %5.1f%%   p99 surcharge %6.1f us"
             name r.W.Trace_replay.replayed r.added_cpu_pct r.p99_added_us ]
         :: List.map
              (fun (cls, count, mean_us) ->
                [ sprintf "   %-10s %6d requests, mean +%.1f us each" cls count
                    mean_us ])
              r.per_class)
       groups)

let twodwalk rows =
  titled
    "Extension: nested paging's two-dimensional page walk (TLB-miss      cost)"
    96
    (* The last head is 27 wide over 26-wide cells, as it always printed. *)
    [ left 34 "Configuration"; right 12 "accesses"; right 14 "walk cycles";
      right 26 "  @1 miss/10k insns (IPC 1)" ]
    (List.map
       (fun r ->
         [ r.Experiment.tw_config; string_of_int r.Experiment.tw_walk_accesses;
           string_of_int r.tw_walk_cycles;
           sprintf "%.1f%%" r.tw_overhead_pct_at_1_miss_per_1k ])
       rows)

let vapic =
  op_matrix
    "Extension: x86 with vAPIC — hardware interrupt completion closes      the gap to ARM (section IV), microbenchmark cycles"
    ~label_width:28 ~cell_width:9 112

let vapic_apps rows =
  lines "Application impact on KVM x86 (normalized):" 0 [ 0 ]
    (List.map
       (fun (w, stock, vapic) ->
         [ sprintf "  %-12s %5.2f -> %5.2f with vAPIC" w stock vapic ])
       rows)

let crosscall rows =
  titled
    "Extension: guest cross-calls (3-target remote TLB flush) — the      shootdown cost of section V, guest view"
    92
    [ left 16 "Configuration"; right 16 "latency"; right 16 "sender cycles";
      right 24 "ARM broadcast TLBI" ]
    (List.map
       (fun (r : W.Crosscall.result) ->
         [ r.W.Crosscall.config; string_of_int r.latency_cycles;
           string_of_int r.sender_cpu_cycles;
           (match r.arm_tlbi_alternative with
           | Some c -> sprintf "%d (no IPIs)" c
           | None -> "n/a (x86)") ])
       rows)

let guestops groups =
  titled
    "Extension: guest-local operations (cycles) — what virtualization      does NOT cost (section V)"
    118 ~notes:[ "(*) the operation left the VM." ]
    (left 32 "Operation" :: List.map (fun (name, _) -> right 14 name) groups)
    (List.map
       (fun op ->
         op
         :: List.map
              (fun (_, rows) ->
                let row = List.find (fun r -> r.W.Guest_ops.op = op) rows in
                sprintf "%d%s" row.W.Guest_ops.cycles
                  (if row.hypervisor_involved then "*" else " "))
              groups)
       W.Guest_ops.op_names)

let lazyswitch =
  op_matrix
    "Extension: the post-paper KVM ARM optimizations (lazy state      switching), microbenchmark cycles"
    ~label_width:22 ~cell_width:10 108

let consolidation rows =
  titled "Extension: VM consolidation — N memcached VMs per host (kilo-ops/s)"
    92
    [ left 10 "Config"; right 6 "VMs"; right 14 "per VM"; right 16 "aggregate";
      right 22 "bottleneck" ]
    (List.map
       (fun r ->
         [ r.Experiment.cons_config; string_of_int r.Experiment.cons_vms;
           sprintf "%.0f" r.cons_per_vm_ops;
           sprintf "%.0f" r.cons_aggregate_ops; r.cons_bottleneck ])
       rows)

let structural rows =
  titled
    "Cross-validation: structural end-to-end stacks (lib/system) vs the      analytic models"
    92
    [ left 10 "Config"; left 22 "Metric"; right 12 "structural";
      right 12 "analytic"; right 12 "agreement" ]
    (List.map
       (fun r ->
         [ r.Experiment.st_config; r.Experiment.st_metric;
           sprintf "%.2f" r.st_structural; sprintf "%.2f" r.st_analytic;
           sprintf "%.0f%%" r.st_agreement_pct ])
       rows)

let fig4_chart rows =
  let bar ch = function
    | Some v ->
        let len = int_of_float (Float.round (v *. 12.0)) in
        sprintf "%5.2f |%s" v (String.make (Stdlib.min 60 len) ch)
    | None -> "  n/a |"
  in
  lines
    "Figure 4 (ARM columns), drawn: each bar is normalized time, 1.0 =      native; '#' = KVM ARM, '=' = Xen ARM"
    96 [ 12; 0 ]
    (List.concat_map
       (fun { Experiment.workload; values } ->
         [ [ workload; bar '#' values.Experiment.q_kvm_arm ];
           [ ""; bar '=' values.q_xen_arm ] ])
       rows)

(* --- the CLI's tables -------------------------------------------------- *)

let migrate rows =
  let title, baseline_p99_us =
    match rows with
    | (_, (r : W.Migration.result)) :: _ ->
        ( [ "Extension: live migration under request load — pre-copy with \
             stage-2 dirty logging";
            Format.asprintf "Plan: %a" Armvirt_migrate.Plan.pp
              r.W.Migration.plan ],
          r.baseline_p99_us )
    | [] -> ([], 0.0)
  in
  Table.v ~title ~rule:108
    ~notes:
      [ sprintf
          "(downtime = stop-and-copy blackout; p99 x = worst pre-copy round \
           request p99 over the %s idle baseline)"
          (Table.float "%.1f us" baseline_p99_us) ]
    [ left 14 "Config"; right 6 "rounds"; right 9 "total ms";
      right 12 "downtime us"; right 7 "sent"; right 7 "resent"; right 6 "final";
      right 5 "conv"; right 13 "worst p99 us"; right 9 "p99 x" ]
    (List.map
       (fun (name, (r : W.Migration.result)) ->
         [ name; string_of_int r.W.Migration.precopy_rounds;
           sprintf "%.2f" r.total_ms; sprintf "%.1f" r.downtime_us;
           string_of_int r.pages_sent; string_of_int r.pages_resent;
           string_of_int r.final_pages; string_of_bool r.converged;
           Table.float "%.1f" r.worst_p99_us;
           Table.float "%.1fx" r.p99_degradation ])
       rows)

let migrate_rounds rows =
  lines "Per-round RR degradation (pages shipped, round length, request p99):"
    96 [ 0 ]
    (List.concat_map
       (fun (name, (r : W.Migration.result)) ->
         let round (round : Armvirt_migrate.Precopy.round) =
           let p99 = round.Armvirt_migrate.Precopy.p99_us in
           [ sprintf "  round %2d: %5d pages %10.1f us   p99 %s" round.index
               round.pages round.duration_us
               (if Float.is_nan p99 then "-"
                else
                  sprintf "%8.1f us (%s)" p99
                    (Table.float "%.1fx"
                       (p99 /. r.W.Migration.baseline_p99_us))) ]
         in
         ([ sprintf "%-14s baseline p99 %s" name
              (Table.float "%.1f us" r.baseline_p99_us) ]
         :: List.map round r.rounds)
         @ [ [ sprintf "  blackout: %.1f us   post-resume p99 %s"
                 r.downtime_us (Table.float "%.1f us" r.post_p99_us) ] ])
       rows)

let migrate_fields rows =
  Table.v
    (Table.heads
       [ "config"; "transport"; "rounds"; "total_us"; "downtime_us";
         "pages_sent"; "pages_resent"; "final_pages"; "wp_faults"; "converged";
         "baseline_p99_us"; "worst_round"; "worst_p99_us"; "p99_degradation";
         "post_p99_us" ])
    (List.map
       (fun (name, (r : W.Migration.result)) ->
         [ name; r.W.Migration.transport; string_of_int r.precopy_rounds;
           sprintf "%.1f" (r.total_ms *. 1e3); sprintf "%.1f" r.downtime_us;
           string_of_int r.pages_sent; string_of_int r.pages_resent;
           string_of_int r.final_pages; string_of_int r.wp_faults;
           string_of_bool r.converged; Table.float "%.2f" r.baseline_p99_us;
           string_of_int r.worst_round; Table.float "%.2f" r.worst_p99_us;
           Table.float "%.3f" r.p99_degradation;
           Table.float "%.2f" r.post_p99_us ])
       rows)

let fleet_boot_storm results =
  Table.v
    (Table.heads
       [ "config"; "vms"; "window_ms"; "time_to_ready_ms"; "mean_boot_ms";
         "p99_boot_ms"; "switches"; "peak_live" ])
    (List.map
       (fun (name, (r : Fleet.Scenario.boot_storm_result)) ->
         [ name; string_of_int r.Fleet.Scenario.vms; sprintf "%.3f" r.window_ms;
           sprintf "%.3f" r.time_to_ready_ms; sprintf "%.3f" r.mean_boot_ms;
           sprintf "%.3f" r.p99_boot_ms; string_of_int r.switches;
           string_of_int r.peak_live ])
       results)

let fleet_churn results =
  Table.v
    (Table.heads
       [ "config"; "initial_vms"; "arrivals"; "admitted"; "retired";
         "peak_live"; "domid_reuses"; "drain_ms"; "switches" ])
    (List.map
       (fun (name, (r : Fleet.Scenario.churn_result)) ->
         [ name; string_of_int r.Fleet.Scenario.initial_vms;
           string_of_int r.arrivals; string_of_int r.admitted;
           string_of_int r.retired; string_of_int r.peak_live;
           string_of_int r.domid_reuses; sprintf "%.3f" r.drain_ms;
           string_of_int r.switches ])
       results)

let fleet_noisy results =
  Table.v
    (Table.heads
       [ "config"; "vms"; "pcpu_rivals"; "completed"; "mean_us"; "p50_us";
         "p99_us"; "switches" ])
    (List.map
       (fun (name, size, (r : Fleet.Scenario.noisy_result)) ->
         [ name; string_of_int size;
           string_of_int r.Fleet.Scenario.victim_pcpu_rivals;
           string_of_int r.completed; sprintf "%.1f" r.mean_us;
           sprintf "%.1f" r.p50_us; sprintf "%.1f" r.p99_us;
           string_of_int r.switches ])
       results)

let yes_no b = if b then "y" else "n"

let cluster_matrix results =
  Table.v
    (Table.heads [ "config"; "topology"; "src"; "dst"; "xhost"; "gbps" ])
    (List.concat_map
       (fun (name, (r : W.Cluster.matrix_result)) ->
         List.map
           (fun (p : W.Cluster.pair_result) ->
             [ name; r.W.Cluster.topology; string_of_int p.W.Cluster.src;
               string_of_int p.dst; yes_no p.cross_host;
               sprintf "%.2f" p.gbps ])
           r.pairs)
       results)

let cluster_chain results =
  let hops =
    match results with
    | (_, (r : W.Cluster.chain_result)) :: _ -> List.map fst r.W.Cluster.hops
    | [] -> []
  in
  Table.v
    (Table.heads
       (("config" :: "topology" :: hops) @ [ "mean_us"; "p99_us"; "xhost" ]))
    (List.map
       (fun (name, (r : W.Cluster.chain_result)) ->
         (name :: r.W.Cluster.chain_topology
          :: List.map (fun (_, us) -> sprintf "%.3f" us) r.hops)
         @ [ sprintf "%.3f" r.mean_total_us; sprintf "%.3f" r.p99_total_us;
             yes_no r.backend_cross_host ])
       results)

let cluster_loadgen results =
  Table.v
    (Table.heads
       [ "config"; "backends"; "offered"; "offered_rps"; "completed";
         "mean_us"; "p50_us"; "p95_us"; "p99_us"; "throughput_rps" ])
    (List.concat_map
       (fun (name, (r : W.Cluster.loadgen_result)) ->
         List.map
           (fun (p : W.Cluster.load_point) ->
             [ name; string_of_int r.W.Cluster.backends;
               sprintf "%.2f" p.W.Cluster.offered; sprintf "%.0f" p.offered_rps;
               string_of_int p.completed; sprintf "%.1f" p.mean_us;
               sprintf "%.1f" p.p50_us; sprintf "%.1f" p.p95_us;
               sprintf "%.1f" p.p99_us; sprintf "%.0f" p.throughput_rps ])
           r.points)
       results)

(* --- the experiment registry ------------------------------------------ *)

type entry = { id : string; doc : string; tables : unit -> Table.t list }

let entry id doc table compute =
  { id; doc; tables = (fun () -> [ table (compute ()) ]) }

(* An entry of two results computes the first before the second: trace
   cell labels number cells in computation order. *)
let registry =
  [
    entry "table2" "Table II: the seven microbenchmarks on all four hypervisors"
      table2 Experiment.table2;
    entry "table3" "Table III: KVM ARM hypercall save/restore decomposition"
      table3 Experiment.table3;
    entry "table5" "Table V: Netperf TCP_RR latency analysis on ARM" table5
      Experiment.table5;
    entry "fig4" "Figure 4: application benchmark performance, normalized" fig4
      Experiment.fig4;
    {
      id = "vhe";
      doc = "Section VI: ARMv8.1 VHE microbenchmarks and app predictions";
      tables =
        (fun () ->
          let micro = vhe (Experiment.vhe ()) in
          [ micro; vhe_app (Experiment.vhe_app ()) ]);
    };
    entry "irqdist" "Section V ablation: distributing virtual interrupts"
      irqdist Experiment.irqdist;
    entry "pinning" "Section IV check: Xen I/O latency vs pinning" pinning
      Experiment.pinning;
    entry "zerocopy" "Section V what-if: Xen zero copy on ARM"
      (fun rows ->
        zerocopy ~break_even:(Experiment.x86_zero_copy_break_even ()) rows)
      Experiment.zerocopy;
    entry "oversub" "Extension: VM Switch cost under oversubscription" oversub
      Experiment.oversub;
    entry "disk" "Extension: paravirtual block I/O latency/throughput" disk
      Experiment.disk;
    entry "tail" "Extension: open-loop tail latency percentiles" tail
      Experiment.tail;
    entry "coldstart" "Extension: cold-start stage-2 faulting" coldstart
      Experiment.coldstart;
    entry "lrs" "Extension: vGIC list-register sensitivity" lrs Experiment.lrs;
    entry "gicv3" "Extension: GICv2 vs GICv3 interrupt-controller ablation"
      gicv3 Experiment.gicv3;
    entry "ticks" "Extension: virtual-timer tick overhead per guest HZ" ticks
      Experiment.ticks;
    entry "linkspeed" "Extension: TCP_STREAM at 1 vs 10 GbE wire speed"
      linkspeed Experiment.linkspeed;
    entry "isolation" "Extension: measurement variability without isolation"
      isolation Experiment.isolation;
    entry "structural" "Cross-validation: structural stacks vs analytic models"
      structural Experiment.structural;
    entry "lazyswitch" "Extension: post-paper lazy state-switching optimizations"
      lazyswitch Experiment.lazyswitch;
    entry "guestops" "Extension: guest-local operation costs (what stays native)"
      guestops Experiment.guestops;
    entry "crosscall" "Extension: guest broadcast cross-call (TLB shootdown) cost"
      crosscall Experiment.crosscall;
    {
      id = "vapic";
      doc = "Extension: x86 with vAPIC (hardware interrupt completion)";
      tables =
        (fun () ->
          let micro = vapic (Experiment.vapic ()) in
          [ micro; vapic_apps (Experiment.vapic_apps ()) ]);
    };
    entry "twodwalk" "Extension: nested paging's 24-access 2D page walk"
      twodwalk Experiment.twodwalk;
    entry "multiqueue" "Extension: virtio-net multiqueue vs the IRQ bottleneck"
      multiqueue Experiment.multiqueue;
    entry "tracereplay" "Extension: synthetic trace replay, per-request surcharges"
      tracereplay Experiment.tracereplay;
    entry "consolidation" "Extension: VM density (N memcached VMs per host)"
      consolidation Experiment.consolidation;
    entry "migrate" "Extension: live-migration downtime/SLO under request load"
      migrate (fun () -> Experiment.migrate ());
    entry "fig4chart" "Figure 4 as ASCII bars (ARM columns)" fig4_chart
      Experiment.fig4;
  ]

let find id = List.find_opt (fun e -> e.id = id) registry
let run ppf e = List.iter (Table.text ppf) (e.tables ())

(* What `run table2 table3 table5 fig4 vhe` prints, as markdown. *)
let markdown () =
  let section (t : Table.t) =
    Format.asprintf "## %s\n\n%a%s" (String.concat " " t.title) Table.markdown
      t
      (String.concat "" (List.map (fun note -> "\n" ^ note ^ "\n") t.notes))
  in
  String.concat "\n"
    ("# armvirt — live results\n"
    :: "Regenerated by `armvirt report` from a fresh simulation run.\n\
        Every number is deterministic.\n"
    :: List.concat_map
         (fun e ->
           if List.mem e.id [ "table2"; "table3"; "table5"; "fig4"; "vhe" ] then
             List.map section (e.tables ())
           else [])
         registry)
