module M = Armvirt_migrate
module Core = Armvirt_core
module Mem = Armvirt_mem
module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Link = Armvirt_net.Link
module Cost_model = Armvirt_arch.Cost_model
module H = Armvirt_hypervisor
module W = Armvirt_workloads
module Explore = Armvirt_explore

let check = Alcotest.check
let checkb msg = Alcotest.(check bool) msg
let checki msg = Alcotest.(check int) msg

(* --- dirty log ------------------------------------------------------- *)

let make_dlog n =
  let s2 = Mem.Stage2.create () in
  for i = 0 to n - 1 do
    Mem.Stage2.map s2 ~ipa_page:i ~pa_page:(0x1000 + i) Mem.Stage2.Read_write
  done;
  Mem.Dirty_log.create s2

let dl_first_write_faults () =
  let d = make_dlog 8 in
  checkb "not logging yet" false (Mem.Dirty_log.logging d);
  checkb "clean before start"
    (Mem.Dirty_log.write d ~ipa_page:3 = `Clean_hit)
    true;
  Mem.Dirty_log.start d;
  checki "tracked all writable pages" 8 (Mem.Dirty_log.tracked_count d);
  checkb "first write faults" (Mem.Dirty_log.write d ~ipa_page:3 = `Wp_fault)
    true;
  checkb "re-dirty is full speed"
    (Mem.Dirty_log.write d ~ipa_page:3 = `Clean_hit)
    true;
  checki "one fault taken" 1 (Mem.Dirty_log.wp_faults d);
  checki "one dirty page" 1 (Mem.Dirty_log.dirty_count d);
  checkb "is_dirty" true (Mem.Dirty_log.is_dirty d ~ipa_page:3)

let dl_harvest_cycle () =
  let d = make_dlog 8 in
  Mem.Dirty_log.start d;
  List.iter
    (fun p -> ignore (Mem.Dirty_log.write d ~ipa_page:p))
    [ 5; 1; 5; 7; 1 ];
  check Alcotest.(list int) "harvest is sorted and deduped" [ 1; 5; 7 ]
    (Mem.Dirty_log.harvest d);
  checki "dirty set cleared" 0 (Mem.Dirty_log.dirty_count d);
  checki "one round" 1 (Mem.Dirty_log.rounds d);
  (* Harvest re-armed the protection: the same page faults again. *)
  checkb "harvested page re-protected"
    (Mem.Dirty_log.write d ~ipa_page:5 = `Wp_fault)
    true;
  checki "fault charged per round" 4 (Mem.Dirty_log.wp_faults d)

let dl_stop_restores () =
  let d = make_dlog 4 in
  Mem.Dirty_log.start d;
  ignore (Mem.Dirty_log.write d ~ipa_page:0);
  Mem.Dirty_log.stop d;
  checkb "logging off" false (Mem.Dirty_log.logging d);
  (* Every page is writable again, including never-written ones. *)
  for p = 0 to 3 do
    checkb "write after stop is clean"
      (Mem.Dirty_log.write d ~ipa_page:p = `Clean_hit)
      true
  done;
  checkb "RW restored"
    (Mem.Stage2.permission (Mem.Dirty_log.stage2 d) ~ipa_page:2
    = Some Mem.Stage2.Read_write)
    true

let dl_guest_ro_preserved () =
  let s2 = Mem.Stage2.create () in
  Mem.Stage2.map s2 ~ipa_page:0 ~pa_page:0x1000 Mem.Stage2.Read_write;
  Mem.Stage2.map s2 ~ipa_page:1 ~pa_page:0x1001 Mem.Stage2.Read_only;
  let d = Mem.Dirty_log.create s2 in
  Mem.Dirty_log.start d;
  checki "RO page not tracked" 1 (Mem.Dirty_log.tracked_count d);
  (* A write to the guest's own read-only page is a real fault, not a
     dirty-logging artifact — it must propagate. *)
  checkb "guest RO write raises"
    (match Mem.Dirty_log.write d ~ipa_page:1 with
    | exception Mem.Stage2.Stage2_fault (Mem.Stage2.Permission _) -> true
    | _ -> false)
    true;
  Mem.Dirty_log.stop d;
  checkb "guest RO page stays RO after stop"
    (Mem.Stage2.permission s2 ~ipa_page:1 = Some Mem.Stage2.Read_only)
    true

let dl_unmapped_propagates () =
  let d = make_dlog 2 in
  Mem.Dirty_log.start d;
  checkb "unmapped write raises"
    (match Mem.Dirty_log.write d ~ipa_page:99 with
    | exception Mem.Stage2.Stage2_fault (Mem.Stage2.Unmapped _) -> true
    | _ -> false)
    true

let dl_double_start_rejected () =
  let d = make_dlog 2 in
  Mem.Dirty_log.start d;
  checkb "double start rejected"
    (match Mem.Dirty_log.start d with
    | exception Invalid_argument _ -> true
    | () -> false)
    true;
  Mem.Dirty_log.stop d;
  checkb "stop when idle rejected"
    (match Mem.Dirty_log.stop d with
    | exception Invalid_argument _ -> true
    | () -> false)
    true

(* --- cost model ------------------------------------------------------ *)

let cost_model_override () =
  let arm = Cost_model.arm_default in
  checkb "arm default positive" true (arm.Cost_model.stage2_wp_fault > 0);
  checkb "x86 default positive" true
    (Cost_model.x86_default.Cost_model.stage2_wp_fault > 0);
  let bumped = Cost_model.with_stage2_wp_fault 9999 arm in
  checki "override applied" 9999 bumped.Cost_model.stage2_wp_fault;
  checki "other fields untouched" arm.Cost_model.trap_to_el2
    bumped.Cost_model.trap_to_el2;
  (* The wp fault is dearer than a plain page-table update: it also
     carries the trap to the hypervisor and the TLB invalidate. ARM
     split-mode traps cost more than x86 VM exits, so its default is
     higher too. *)
  checkb "wp fault > bare page map" true
    (arm.Cost_model.stage2_wp_fault > arm.Cost_model.page_map_cost);
  checkb "arm trap dearer than x86 exit" true
    (arm.Cost_model.stage2_wp_fault
    > Cost_model.x86_default.Cost_model.stage2_wp_fault)

(* --- link bulk transfers --------------------------------------------- *)

let link_transfer_time () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~propagation:(Cycles.of_int 1000) ~cycles_per_byte:1.92
  in
  (* Rounded once over the payload: 4096 * 1.92 = 7864.32 -> 7864. *)
  checki "byte-accurate serialization" (7864 + 1000)
    (Cycles.to_int (Link.transfer_time link ~bytes:4096));
  checki "zero bytes is pure propagation" 1000
    (Cycles.to_int (Link.transfer_time link ~bytes:0));
  (* Per-batch rounding must not drift: 1000 batches of 1 byte each
     would charge 1000 * round(1.92) = 2000 if rounded per batch. *)
  checki "no per-batch rounding drift" (1920 + 1000)
    (Cycles.to_int (Link.transfer_time link ~bytes:1000))

let link_send_bulk_fifo () =
  let sim = Sim.create () in
  let link =
    Link.create sim ~propagation:(Cycles.of_int 100) ~cycles_per_byte:2.0
  in
  let l1 = ref Cycles.zero and l2 = ref Cycles.zero in
  Sim.spawn sim ~name:"sender" (fun () ->
      l1 := Link.send_bulk link ~bytes:50;
      (* The second payload starts serializing immediately (the wire was
         claimed back-to-back), so its latency is serialization +
         propagation again — no queueing, because we waited. *)
      l2 := Link.send_bulk link ~bytes:50);
  Sim.run sim;
  checki "first bulk latency" 200 (Cycles.to_int !l1);
  checki "second bulk latency" 200 (Cycles.to_int !l2);
  checki "both delivered" 2 (Link.delivered link)

(* --- precopy engine -------------------------------------------------- *)

let small_plan =
  {
    M.Plan.default with
    M.Plan.pages = 512;
    hot_pages = 64;
    warmup_us = 500.0;
    tail_us = 500.0;
  }

let hyp p h = Core.Platform.hypervisor p h

let precopy_smoke () =
  let r = M.Precopy.run ~plan:small_plan (hyp Core.Platform.Arm_m400 Core.Platform.Kvm) in
  checkb "converged" true r.M.Precopy.converged;
  checkb "some rounds ran" true (r.M.Precopy.precopy_rounds >= 1);
  checki "round list matches" r.M.Precopy.precopy_rounds
    (List.length r.M.Precopy.rounds);
  checki "resent = sent - pages"
    (r.M.Precopy.pages_sent - small_plan.M.Plan.pages)
    r.M.Precopy.pages_resent;
  checkb "round 0 ships everything" true
    (match r.M.Precopy.rounds with
    | first :: _ -> first.M.Precopy.pages = small_plan.M.Plan.pages
    | [] -> false);
  checkb "blackout under 2x SLO" true
    (r.M.Precopy.downtime_us
    < 2.0 *. small_plan.M.Plan.downtime_target_us);
  checkb "total >= downtime" true
    (r.M.Precopy.total_us >= r.M.Precopy.downtime_us);
  checkb "guest saw traffic" true (r.M.Precopy.requests > 0);
  checkb "faults were taken" true (r.M.Precopy.wp_faults > 0)

let precopy_ordering () =
  let run p h = M.Precopy.run (hyp p h) in
  let vhe = run Core.Platform.Arm_m400_vhe Core.Platform.Kvm in
  let arm = run Core.Platform.Arm_m400 Core.Platform.Kvm in
  let xen_x86 = run Core.Platform.X86_r320 Core.Platform.Xen in
  Printf.printf "downtime: vhe=%.1f arm=%.1f xen-x86=%.1f\n%!"
    vhe.M.Precopy.downtime_us arm.M.Precopy.downtime_us
    xen_x86.M.Precopy.downtime_us;
  checkb "ARM VHE < ARM split-mode" true
    (vhe.M.Precopy.downtime_us < arm.M.Precopy.downtime_us);
  checkb "ARM split-mode < Xen x86" true
    (arm.M.Precopy.downtime_us < xen_x86.M.Precopy.downtime_us)

(* With an unbounded SLO every config stops after round 0 with the same
   dirty sequence, so the downtime gap is purely the transition-cost
   deltas — the ordering must hold structurally, not by threshold
   stepping. *)
let precopy_ordering_structural () =
  let plan = { small_plan with M.Plan.downtime_target_us = 1e9 } in
  let run p h = M.Precopy.run ~plan (hyp p h) in
  let vhe = run Core.Platform.Arm_m400_vhe Core.Platform.Kvm in
  let arm = run Core.Platform.Arm_m400 Core.Platform.Kvm in
  checki "one round each" 1 vhe.M.Precopy.precopy_rounds;
  checki "same dirty sequence" arm.M.Precopy.final_pages
    vhe.M.Precopy.final_pages;
  checkb "VHE blackout strictly shorter" true
    (vhe.M.Precopy.downtime_us < arm.M.Precopy.downtime_us)

let precopy_converges_when_idle () =
  (* A guest barely dirtying memory: one round and a tiny residual. *)
  let plan = { small_plan with M.Plan.txn_rate_hz = 500.0 } in
  let r = M.Precopy.run ~plan (hyp Core.Platform.Arm_m400 Core.Platform.Kvm) in
  checkb "converged" true r.M.Precopy.converged;
  checkb "few rounds" true (r.M.Precopy.precopy_rounds <= 3);
  checkb "few pages resent" true
    (r.M.Precopy.pages_resent < small_plan.M.Plan.pages / 4)

let precopy_round_cap () =
  (* Dirty rate outruns a slow wire: pre-copy cannot converge and the
     cap forces stop-and-copy with a large residual. *)
  let plan =
    {
      small_plan with
      M.Plan.txn_rate_hz = 100_000.0;
      bandwidth_gbps = 0.5;
      max_rounds = 5;
      downtime_target_us = 50.0;
    }
  in
  let r = M.Precopy.run ~plan (hyp Core.Platform.Arm_m400 Core.Platform.Kvm) in
  checkb "did not converge" false r.M.Precopy.converged;
  checki "stopped at the cap" plan.M.Plan.max_rounds
    r.M.Precopy.precopy_rounds;
  checkb "missed the SLO" true
    (r.M.Precopy.downtime_us > plan.M.Plan.downtime_target_us)

let precopy_deterministic () =
  let one () =
    M.Precopy.run ~plan:small_plan
      (hyp Core.Platform.Arm_m400 Core.Platform.Xen)
  in
  let a = one () and b = one () in
  checkb "identical downtime" true
    (a.M.Precopy.downtime_us = b.M.Precopy.downtime_us);
  checkb "identical total" true (a.M.Precopy.total_us = b.M.Precopy.total_us);
  checki "identical pages sent" a.M.Precopy.pages_sent b.M.Precopy.pages_sent;
  checki "identical faults" a.M.Precopy.wp_faults b.M.Precopy.wp_faults;
  checki "identical requests" a.M.Precopy.requests b.M.Precopy.requests

let profiles_diverge () =
  let kvm = H.Kvm_arm.create (Core.Platform.machine Core.Platform.Arm_m400) in
  let kvm_vhe =
    H.Kvm_arm.create (Core.Platform.machine Core.Platform.Arm_m400_vhe)
  in
  let xen = H.Xen_arm.create (Core.Platform.machine Core.Platform.Arm_m400) in
  let pk = H.Kvm_arm.migrate_profile kvm in
  let pv = H.Kvm_arm.migrate_profile kvm_vhe in
  let px = H.Xen_arm.migrate_profile xen in
  check Alcotest.string "KVM ships over vhost" "vhost"
    pk.H.Migrate_profile.transport;
  check Alcotest.string "Xen ships over grants" "grant"
    px.H.Migrate_profile.transport;
  checkb "VHE wp fault cheaper than split-mode" true
    (pv.H.Migrate_profile.wp_fault_guest_cpu
    < pk.H.Migrate_profile.wp_fault_guest_cpu);
  checkb "VHE pause/resume cheaper" true
    (pv.H.Migrate_profile.pause_vcpu + pv.H.Migrate_profile.resume_vcpu
    < pk.H.Migrate_profile.pause_vcpu + pk.H.Migrate_profile.resume_vcpu);
  checkb "grant per-page send dearer than vhost" true
    (px.H.Migrate_profile.page_send_per_page
    > pk.H.Migrate_profile.page_send_per_page)

(* --- conservation ----------------------------------------------------- *)

let configs =
  Core.Platform.
    [
      (Arm_m400_vhe, Kvm); (Arm_m400, Kvm); (Arm_m400, Xen); (X86_r320, Kvm);
      (X86_r320, Xen);
    ]

let plan_gen =
  let open QCheck.Gen in
  let* pages = int_range 64 6000 in
  let* hot_pages = int_bound pages in
  let* hot_fraction = float_bound_inclusive 1.0 in
  let* writes_per_txn = int_bound 15 in
  let* txn_rate_hz = float_bound_inclusive 80_000.0 in
  let* max_rounds = int_range 1 30 in
  let* batch_pages = int_range 1 200 in
  let* downtime_target_us = float_range 10.0 2000.0 in
  let* bandwidth_gbps = float_range 0.5 40.0 in
  let+ seed = int_bound 1_000_000 in
  {
    M.Plan.default with
    M.Plan.pages;
    hot_pages;
    hot_fraction;
    writes_per_txn;
    txn_rate_hz;
    max_rounds;
    batch_pages;
    downtime_target_us;
    bandwidth_gbps;
    seed;
  }

(* Every page shipped is accounted for: the full first pass, then exactly
   one resend per write-protect fault, across the rounds and the
   blackout. *)
let prop_precopy_conserves_pages =
  QCheck.Test.make ~count:20
    ~name:"precopy ships each page once plus each fault"
    (QCheck.make ~print:(Format.asprintf "%a" M.Plan.pp) plan_gen)
    (fun plan ->
      List.for_all
        (fun (p, h) ->
          let r = M.Precopy.run ~plan (hyp p h) in
          let round_pages =
            List.fold_left
              (fun acc (rd : M.Precopy.round) -> acc + rd.M.Precopy.pages)
              0 r.M.Precopy.rounds
          in
          let ok =
            round_pages + r.M.Precopy.final_pages = r.M.Precopy.pages_sent
            && (match r.M.Precopy.rounds with
               | first :: _ -> first.M.Precopy.pages = plan.M.Plan.pages
               | [] -> false)
            && r.M.Precopy.wp_faults = r.M.Precopy.pages_resent
            && List.length r.M.Precopy.rounds = r.M.Precopy.precopy_rounds
          in
          if not ok then
            QCheck.Test.fail_reportf
              "%s, batch %d: %d rounds (%d listed) shipping %d pages, final \
               %d, sent %d, resent %d, faults %d"
              r.M.Precopy.hyp_name plan.M.Plan.batch_pages
              r.M.Precopy.precopy_rounds
              (List.length r.M.Precopy.rounds) round_pages
              r.M.Precopy.final_pages r.M.Precopy.pages_sent
              r.M.Precopy.pages_resent r.M.Precopy.wp_faults;
          true)
        configs)

(* --- workload + experiment ------------------------------------------- *)

let workload_p99_degrades () =
  let r =
    W.Migration.run ~plan:M.Plan.default
      (hyp Core.Platform.Arm_m400 Core.Platform.Kvm)
  in
  checkb "baseline measured" true (r.W.Migration.baseline_p99_us > 0.0);
  checkb "worst round found" true (r.W.Migration.worst_round >= 0);
  checkb "dirty logging degrades p99" true
    (r.W.Migration.worst_p99_us > r.W.Migration.baseline_p99_us);
  checkb "degradation ratio consistent" true
    (Float.abs
       (r.W.Migration.p99_degradation
       -. (r.W.Migration.worst_p99_us /. r.W.Migration.baseline_p99_us))
    < 1e-9);
  (* Split-mode KVM ARM pays more per fault than VHE, so its rounds hurt
     the guest more. *)
  let vhe =
    W.Migration.run ~plan:M.Plan.default
      (hyp Core.Platform.Arm_m400_vhe Core.Platform.Kvm)
  in
  checkb "VHE degrades less than split-mode" true
    (vhe.W.Migration.worst_p99_us < r.W.Migration.worst_p99_us)

let experiment_jobs_invariant () =
  let module Runner = Core.Runner in
  let snapshot () =
    List.map
      (fun (name, (r : W.Migration.result)) ->
        ( name,
          r.W.Migration.downtime_us,
          r.W.Migration.total_ms,
          r.W.Migration.pages_resent,
          r.W.Migration.wp_faults ))
      (Core.Experiment.migrate ~plan:small_plan ())
  in
  Runner.set_jobs 1;
  let serial = snapshot () in
  Runner.set_jobs 4;
  let parallel = snapshot () in
  Runner.set_jobs 1;
  checki "five configs" 5 (List.length serial);
  List.iter2
    (fun (n1, d1, t1, p1, f1) (n2, d2, t2, p2, f2) ->
      check Alcotest.string "config order" n1 n2;
      checkb "downtime identical at jobs 1 vs 4" true (d1 = d2);
      checkb "total identical" true (t1 = t2);
      checki "resent identical" p1 p2;
      checki "faults identical" f1 f2)
    serial parallel

(* --- explore integration --------------------------------------------- *)

let explore_knobs () =
  let module C = Explore.Config in
  let module Space = Explore.Space in
  let base = C.default in
  let c = C.apply base "stage2_wp_fault" (Space.Int 1234) in
  checki "wp fault knob" 1234 c.C.arm.Cost_model.stage2_wp_fault;
  let c = C.apply base "mig.bandwidth_gbps" (Space.Float 40.0) in
  checkb "bandwidth knob" true
    (c.C.migration.M.Plan.bandwidth_gbps = 40.0);
  let c = C.apply base "mig.page_kb" (Space.Int 8) in
  checki "page granule" 8 c.C.migration.M.Plan.page_kb;
  let kb (p : M.Plan.t) = p.M.Plan.pages * p.M.Plan.page_kb in
  checki "guest memory held constant" (kb base.C.migration) (kb c.C.migration);
  checkb "hot-set bytes held constant" true
    (c.C.migration.M.Plan.hot_pages * 8
    = base.C.migration.M.Plan.hot_pages * base.C.migration.M.Plan.page_kb);
  checkb "bad rate rejected" true
    (match C.apply base "mig.txn_rate_hz" (Space.Float (-1.0)) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "mig knobs documented" true
    (List.mem_assoc "mig.bandwidth_gbps" C.knobs
    && List.mem_assoc "stage2_wp_fault" C.knobs)

let explore_objectives () =
  let module O = Explore.Objective in
  let base =
    { Explore.Config.default with Explore.Config.migration = small_plan }
  in
  let eval name c = (O.find name).O.eval c in
  let downtime = eval "mig-downtime" base in
  checkb "downtime positive and finite" true
    (downtime > 0.0 && Float.is_finite downtime);
  checkb "total >= downtime" true (eval "mig-total" base >= downtime);
  checkb "resent non-negative" true (eval "mig-resent" base >= 0.0);
  (* More wire, less time: bandwidth must move the total. *)
  let fat =
    Explore.Config.apply base "mig.bandwidth_gbps" (Explore.Space.Float 40.0)
  in
  let thin =
    Explore.Config.apply base "mig.bandwidth_gbps" (Explore.Space.Float 2.5)
  in
  checkb "bandwidth drives total migration time" true
    (eval "mig-total" fat < eval "mig-total" thin)

let explore_sweep_invariance () =
  let module Runner = Core.Runner in
  let base =
    { Explore.Config.default with Explore.Config.migration = small_plan }
  in
  let space = Explore.Space.of_string "mig.bandwidth_gbps=5.0|10.0" in
  let sweep jobs =
    Runner.set_jobs jobs;
    let s =
      Explore.Sweep.run ~seed:7 ~base ~sampler:Explore.Sampler.Grid
        ~objectives:[ Explore.Objective.find "mig-downtime" ]
        space
    in
    Runner.set_jobs 1;
    Format.asprintf "%a" Explore.Sweep.pp_csv s
  in
  let a = sweep 1 and b = sweep 2 in
  checkb "sweep CSV byte-identical across jobs" true (String.equal a b);
  checkb "sweep evaluated both points" true
    (List.length (String.split_on_char '\n' (String.trim a)) = 3)

(* --- registration ---------------------------------------------------- *)

let tc = Alcotest.test_case

let () =
  Alcotest.run "migrate"
    [
      ( "dirty_log",
        [
          tc "first-write faults, re-dirty is free" `Quick dl_first_write_faults;
          tc "harvest sorts, clears, re-protects" `Quick dl_harvest_cycle;
          tc "stop restores write access" `Quick dl_stop_restores;
          tc "guest RO pages are not logged" `Quick dl_guest_ro_preserved;
          tc "unmapped faults propagate" `Quick dl_unmapped_propagates;
          tc "double start/stop rejected" `Quick dl_double_start_rejected;
        ] );
      ( "costs",
        [
          tc "stage2_wp_fault override" `Quick cost_model_override;
          tc "link transfer_time is byte-accurate" `Quick link_transfer_time;
          tc "link send_bulk FIFO latency" `Quick link_send_bulk_fifo;
        ] );
      ( "precopy",
        [
          tc "smoke invariants" `Quick precopy_smoke;
          tc "downtime ordering (paper)" `Quick precopy_ordering;
          tc "downtime ordering (structural)" `Quick
            precopy_ordering_structural;
          tc "idle guest converges fast" `Quick precopy_converges_when_idle;
          tc "hot guest hits the round cap" `Quick precopy_round_cap;
          tc "deterministic across reruns" `Quick precopy_deterministic;
          tc "per-hypervisor profiles diverge" `Quick profiles_diverge;
          QCheck_alcotest.to_alcotest prop_precopy_conserves_pages;
        ] );
      ( "workload",
        [
          tc "RR p99 degrades under logging" `Quick workload_p99_degrades;
          tc "experiment identical at jobs 1 vs 4" `Quick
            experiment_jobs_invariant;
        ] );
      ( "explore",
        [
          tc "mig knobs apply and validate" `Quick explore_knobs;
          tc "mig objectives evaluate" `Quick explore_objectives;
          tc "sweep identical across jobs" `Quick explore_sweep_invariance;
        ] );
    ]
