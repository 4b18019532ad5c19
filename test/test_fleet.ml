(* lib/fleet: pooled guest state, the quantum-stepped scenario engines
   (boot-storm / churn / noisy-neighbor), and credit_sched under real
   overcommit — fairness, caps, weights, candidate-order determinism,
   and agreement with the scan-and-sort scheduler the runqueues
   replaced. *)

module Pool = Armvirt_fleet.Pool
module Descriptor = Armvirt_fleet.Descriptor
module Scenario = Armvirt_fleet.Scenario
module Batch = Armvirt_fleet.Batch
module Credit_sched = Armvirt_hypervisor.Credit_sched
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Machine = Armvirt_arch.Machine
module Marker = Armvirt_obs.Marker
module Platform = Armvirt_core.Platform
module Xen_arm = Armvirt_hypervisor.Xen_arm

let qcheck = QCheck_alcotest.to_alcotest

let models =
  [
    ("KVM ARM (VHE)", Platform.Arm_m400_vhe, Platform.Kvm);
    ("KVM ARM", Platform.Arm_m400, Platform.Kvm);
    ("Xen ARM", Platform.Arm_m400, Platform.Xen);
    ("KVM x86", Platform.X86_r320, Platform.Kvm);
    ("Xen x86", Platform.X86_r320, Platform.Xen);
  ]

let kvm_arm () = Platform.hypervisor Platform.Arm_m400 Platform.Kvm

(* --- pool ------------------------------------------------------------ *)

let test_pool_reuse () =
  let p = Pool.create () in
  let d0 = Pool.admit p ~profile:0 ~vcpus:1 ~now:0 in
  let d1 = Pool.admit p ~profile:0 ~vcpus:2 ~now:0 in
  let d2 = Pool.admit p ~profile:0 ~vcpus:1 ~now:0 in
  Alcotest.(check (list int)) "sequential domids" [ 0; 1; 2 ] [ d0; d1; d2 ];
  Pool.retire p d1;
  Pool.retire p d0;
  (* Lowest retired domid is recycled first. *)
  let d3 = Pool.admit p ~profile:1 ~vcpus:4 ~now:9 in
  Alcotest.(check int) "lowest free reused" 0 d3;
  let d4 = Pool.admit p ~profile:0 ~vcpus:1 ~now:9 in
  Alcotest.(check int) "next free reused" 1 d4;
  Alcotest.(check int) "reuse counted" 2 (Pool.reused p);
  Alcotest.(check int) "admitted" 5 (Pool.admitted p);
  Alcotest.(check int) "retired" 2 (Pool.retired p);
  Alcotest.(check int) "peak live" 3 (Pool.peak_live p);
  Alcotest.(check int) "high water" 3 (Pool.high_water p);
  (* The reused slot's work array grew for the 4-VCPU tenancy and was
     zeroed. *)
  let s = Pool.slot p d3 in
  Alcotest.(check int) "vcpus" 4 s.Pool.vcpus;
  Alcotest.(check bool)
    "work zeroed" true
    (Array.for_all (fun w -> w = 0) s.Pool.work);
  Pool.retire p d4;
  Alcotest.check_raises "retired domid is dead"
    (Invalid_argument "Fleet.Pool.slot: not a live domid") (fun () ->
      ignore (Pool.slot p d4 == s))

let test_pool_retire_dead () =
  let p = Pool.create () in
  let d = Pool.admit p ~profile:0 ~vcpus:1 ~now:0 in
  Pool.retire p d;
  Alcotest.check_raises "double retire"
    (Invalid_argument "Fleet.Pool.slot: not a live domid") (fun () ->
      Pool.retire p d)

(* --- descriptor ------------------------------------------------------ *)

let test_descriptor_mix () =
  let a = { Descriptor.synthetic with Descriptor.name = "a" } in
  let b = { Descriptor.synthetic with Descriptor.name = "b" } in
  let d = Descriptor.v ~vms:8 [ (a, 2); (b, 1) ] in
  let names = List.init 7 (fun i -> (Descriptor.profile_of d i).Descriptor.name) in
  Alcotest.(check (list string))
    "weighted round-robin pattern"
    [ "a"; "a"; "b"; "a"; "a"; "b"; "a" ]
    names;
  Alcotest.(check (list (pair string int)))
    "mix shares" [ ("a", 2); ("b", 1) ]
    (List.map (fun (p, n) -> (p.Descriptor.name, n)) d.Descriptor.mix);
  Alcotest.check_raises "empty mix"
    (Invalid_argument "Fleet.Descriptor: empty profile mix") (fun () ->
      ignore (Descriptor.v ~vms:1 []));
  Alcotest.check_raises "bad cap"
    (Invalid_argument "Fleet.Descriptor: profile a: cap outside [0, 100]")
    (fun () ->
      ignore (Descriptor.v ~vms:1 [ ({ a with Descriptor.cap_pct = 101 }, 1) ]));
  (* The VCPU budget: 65536 two-VCPU guests fit it, one VCPU more
     does not, however the mix spreads it. *)
  let two = { a with Descriptor.vcpus = 2 } in
  ignore (Descriptor.v ~vms:65536 [ (two, 1) ]);
  Alcotest.check_raises "over the VCPU budget"
    (Invalid_argument "Fleet.Descriptor: more than 131072 VCPUs in all")
    (fun () ->
      ignore
        (Descriptor.v ~vms:65536
           [ (two, 65535); ({ a with Descriptor.vcpus = 3 }, 1) ]))

(* --- boot-storm ------------------------------------------------------ *)

let storm_desc vms = Descriptor.v ~vms [ (Descriptor.synthetic, 1) ]

let test_boot_storm_smoke () =
  let r = Scenario.boot_storm (kvm_arm ()) (storm_desc 16) in
  Alcotest.(check int) "all admitted" 16 r.Scenario.peak_live;
  Alcotest.(check bool) "ready time positive" true (r.Scenario.time_to_ready_ms > 0.0);
  Alcotest.(check bool)
    "boot latency ordering" true
    (r.Scenario.p99_boot_ms >= r.Scenario.mean_boot_ms);
  Alcotest.(check bool) "switches happened" true (r.Scenario.switches > 0)

let test_boot_storm_deterministic () =
  let run () = Scenario.boot_storm ~seed:7 (kvm_arm ()) (storm_desc 64) in
  let a = run () and b = run () in
  Alcotest.(check bool) "byte-identical result" true (a = b)

let test_boot_storm_256 () =
  (* The acceptance-criteria scale: 256 guests on one 8-PCPU host. *)
  let r = Scenario.boot_storm ~seed:42 (kvm_arm ()) (storm_desc 256) in
  Alcotest.(check int) "256 admitted" 256 r.Scenario.peak_live;
  Alcotest.(check bool)
    "an overcommitted storm is slower than its window" true
    (r.Scenario.time_to_ready_ms > r.Scenario.window_ms);
  let r' = Scenario.boot_storm ~seed:42 (kvm_arm ()) (storm_desc 256) in
  Alcotest.(check bool) "deterministic at 256" true (r = r')

(* A model renamed the way examples/custom_hypervisor.ml renames Xen ARM
   keeps its own marker prefix: the fleet counts world switches through
   the model's transitions, not through its display name. *)
let test_boot_storm_renamed_model () =
  let hyp =
    {
      (Xen_arm.to_hypervisor (Platform.xen_arm ())) with
      Hypervisor.name = "Xen ARM (zero copy)";
    }
  in
  ignore (Scenario.boot_storm ~seed:7 hyp (storm_desc 16));
  let counted prefix =
    List.fold_left
      (fun acc (m, n) ->
        if String.starts_with ~prefix (Marker.label m) then acc + n else acc)
      0
      (Machine.markers hyp.Hypervisor.machine)
  in
  Alcotest.(check bool) "xen_arm exits counted" true (counted "xen_arm.exit/" > 0);
  Alcotest.(check bool) "xen_arm entries counted" true
    (counted "xen_arm.entry/" > 0);
  Alcotest.(check int) "no native markers" 0 (counted "native.")

let test_boot_storm_monotone_in_size () =
  (* More guests on the same host can only push all-ready out. *)
  let ready n =
    (Scenario.boot_storm ~seed:3 (kvm_arm ()) (storm_desc n))
      .Scenario.time_to_ready_ms
  in
  let t16 = ready 16 and t64 = ready 64 and t256 = ready 256 in
  Alcotest.(check bool) "16 <= 64" true (t16 <= t64);
  Alcotest.(check bool) "64 <= 256" true (t64 <= t256)

(* Work-conservation oracle: with every guest arriving at t = 0, the
   busiest PCPU holds ceil(vms/P) one-VCPU guests, each needing
   k = ceil(boot/ts) quanta, the last of them r = boot - (k-1)*ts
   cycles long. All-ready lands exactly when that PCPU finishes its
   last quantum — ((ceil(vms/P) * k) - 1) * ts + r cycles — if and only
   if no PCPU ever idles while it has runnable work. *)
let prop_boot_storm_work_conserving =
  QCheck.Test.make ~name:"boot-storm all-ready time is work-conserving"
    ~count:20
    QCheck.(int_range 1 200)
    (fun vms ->
      let desc = storm_desc vms in
      List.for_all
        (fun (name, platform, id) ->
          let hyp = Platform.hypervisor platform id in
          let machine = hyp.Hypervisor.machine in
          let cycles_per_ms = Machine.freq_ghz machine *. 1e9 /. 1e3 in
          (* The timeslice in the scenario's own float expression, so
             the rounding to whole cycles agrees. *)
          let ts =
            Stdlib.max 1
              (int_of_float
                 (desc.Descriptor.timeslice_ms *. Machine.freq_ghz machine
                *. 1e9 /. 1e3))
          in
          let boot = Descriptor.synthetic.Descriptor.boot_cycles in
          let k = (boot + ts - 1) / ts in
          let r = boot - ((k - 1) * ts) in
          let per_pcpu =
            (vms + Machine.num_cpus machine - 1) / Machine.num_cpus machine
          in
          let want =
            float_of_int ((((per_pcpu * k) - 1) * ts) + r) /. cycles_per_ms
          in
          let got =
            (Scenario.boot_storm ~window_ms:0.0 hyp desc)
              .Scenario.time_to_ready_ms
          in
          Float.abs (got -. want) <= 1e-9
          || QCheck.Test.fail_reportf "%s at %d VMs: all-ready %.9f ms, want %.9f"
               name vms got want)
        models)

(* --- churn ----------------------------------------------------------- *)

let test_churn_smoke () =
  let r = Scenario.churn ~seed:5 (kvm_arm ()) (storm_desc 16) in
  Alcotest.(check int) "all admitted" 32 r.Scenario.admitted;
  Alcotest.(check int) "all retired" 32 r.Scenario.retired;
  Alcotest.(check bool) "domids recycled" true (r.Scenario.domid_reuses > 0);
  Alcotest.(check bool)
    "pool stayed below total admissions" true
    (r.Scenario.peak_live < 32);
  Alcotest.(check bool) "drained" true (r.Scenario.drain_ms > 0.0)

let test_churn_deterministic () =
  let run () = Scenario.churn ~seed:11 (kvm_arm ()) (storm_desc 24) in
  let a = run () and b = run () in
  Alcotest.(check bool) "byte-identical result" true (a = b)

(* --- noisy neighbor -------------------------------------------------- *)

let noisy_desc vms =
  let aggressor =
    { Descriptor.synthetic with Descriptor.name = "aggressor"; vcpus = 2 }
  in
  Descriptor.v ~vms [ (aggressor, 1) ]

let test_noisy_monotone_all_models () =
  let sizes = [ 1; 2; 4; 8; 16 ] in
  List.iter
    (fun (name, platform, id) ->
      let curve =
        List.map
          (fun n ->
            Scenario.noisy_neighbor ~seed:42
              (Platform.hypervisor platform id)
              (noisy_desc n))
          sizes
      in
      List.iter
        (fun r ->
          Alcotest.(check int)
            (name ^ ": all requests completed")
            400 r.Scenario.completed)
        curve;
      let p99s = List.map (fun r -> r.Scenario.p99_us) curve in
      let rec monotone = function
        | a :: (b :: _ as rest) ->
            if a > b +. 1e-9 then
              Alcotest.failf "%s: p99 decreased %g -> %g (curve %s)" name a b
                (String.concat ", " (List.map (Printf.sprintf "%.3f") p99s));
            monotone rest
        | _ -> ()
      in
      monotone p99s;
      (* The largest fleet must actually interfere. *)
      let first = List.hd p99s and last = List.nth p99s 4 in
      if not (last > first) then
        Alcotest.failf "%s: no interference: p99 %g at 1 VM, %g at 16" name
          first last)
    models

let test_noisy_deterministic () =
  let run () =
    Scenario.noisy_neighbor ~seed:9 (kvm_arm ()) (noisy_desc 8)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "byte-identical result" true (a = b)

(* --- batch (oversub substrate) --------------------------------------- *)

let test_batch_matches_manual_sched () =
  (* Batch.run must reproduce the exact scheduler Oversub used to
     build by hand: same add order, same affinity, same work list. *)
  let num_pcpus = 4 and timeslice = 1000 and work = 10_000 in
  let sched = Credit_sched.create ~num_pcpus ~timeslice_cycles:timeslice in
  let jobs =
    List.concat_map
      (fun dom ->
        List.init num_pcpus (fun index ->
            let vcpu = { Credit_sched.dom; index } in
            Credit_sched.add_vcpu sched vcpu ~affinity:index;
            (vcpu, work)))
      (List.init 3 Fun.id)
  in
  let expected =
    Credit_sched.run_to_completion sched ~work:jobs ~switch_cost:500
  in
  let got =
    Batch.run ~num_pcpus ~timeslice_cycles:timeslice ~switch_cost:500 ~vms:3
      ~vcpus_per_vm:num_pcpus ~work_per_vcpu:work
  in
  Alcotest.(check (pair int int)) "identical makespan and switches" expected got

let test_batch_validation () =
  let run ~vms ~vcpus_per_vm =
    Batch.run ~num_pcpus:4 ~timeslice_cycles:1000 ~switch_cost:500 ~vms
      ~vcpus_per_vm ~work_per_vcpu:10_000
  in
  Alcotest.check_raises "no VMs" (Invalid_argument "Fleet.Batch.run: vms < 1")
    (fun () -> ignore (run ~vms:0 ~vcpus_per_vm:1));
  Alcotest.check_raises "no VCPUs"
    (Invalid_argument "Fleet.Batch.run: vcpus_per_vm < 1") (fun () ->
      ignore (run ~vms:1 ~vcpus_per_vm:0));
  (* One VCPU per PCPU: each PCPU switches only from idle to its VCPU
     and back, and the eight switches' cost is spread over four PCPUs. *)
  Alcotest.(check (pair int int)) "uncontended" (10_000 + (8 * 500 / 4), 8)
    (run ~vms:1 ~vcpus_per_vm:4)

(* --- credit_sched under overcommit (satellite) ----------------------- *)

let drive sched ~pcpus ~quanta ~timeslice ~refill_every ~count =
  for q = 1 to quanta do
    if q mod refill_every = 0 then
      Credit_sched.periodic_refill sched ~cycles:(refill_every * timeslice);
    for pcpu = 0 to pcpus - 1 do
      match Credit_sched.pick sched ~pcpu with
      | None -> ()
      | Some v ->
          count v;
          Credit_sched.charge sched ~pcpu ~cycles:timeslice
    done
  done

let test_fairness_8_per_pcpu () =
  (* 8 always-runnable VCPUs on one PCPU: equal weights must yield
     equal service, spread at most one quantum. *)
  let ts = 1000 in
  let sched = Credit_sched.create ~num_pcpus:1 ~timeslice_cycles:ts in
  let vcpus = List.init 8 (fun dom -> { Credit_sched.dom; index = 0 }) in
  List.iter
    (fun v ->
      Credit_sched.add_vcpu sched v ~affinity:0;
      Credit_sched.set_runnable sched v true)
    vcpus;
  let counts = Hashtbl.create 8 in
  let count (v : Credit_sched.vcpu) =
    Hashtbl.replace counts v.Credit_sched.dom
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts v.Credit_sched.dom))
  in
  drive sched ~pcpus:1 ~quanta:800 ~timeslice:ts ~refill_every:10 ~count;
  let per_vcpu =
    List.map
      (fun (v : Credit_sched.vcpu) ->
        Option.value ~default:0 (Hashtbl.find_opt counts v.Credit_sched.dom))
      vcpus
  in
  let mn = List.fold_left Stdlib.min max_int per_vcpu in
  let mx = List.fold_left Stdlib.max 0 per_vcpu in
  Alcotest.(check int) "total quanta" 800 (List.fold_left ( + ) 0 per_vcpu);
  Alcotest.(check bool)
    (Printf.sprintf "fair spread (min %d, max %d)" mn mx)
    true
    (mx - mn <= 1)

let test_cap_enforcement () =
  (* 9 VCPUs on one PCPU (> 8x overcommit); one is capped at 5%. Its
     fair share would be 1/9 = 11%; the cap must hold it near 5%
     while the uncapped eight absorb the slack. *)
  let ts = 1000 in
  let sched = Credit_sched.create ~num_pcpus:1 ~timeslice_cycles:ts in
  let capped = { Credit_sched.dom = 0; index = 0 } in
  Credit_sched.add_vcpu ~cap:5 sched capped ~affinity:0;
  Credit_sched.set_runnable sched capped true;
  let others = List.init 8 (fun i -> { Credit_sched.dom = i + 1; index = 0 }) in
  List.iter
    (fun v ->
      Credit_sched.add_vcpu sched v ~affinity:0;
      Credit_sched.set_runnable sched v true)
    others;
  let capped_runs = ref 0 and total = ref 0 in
  let count v =
    incr total;
    if v = capped then incr capped_runs
  in
  drive sched ~pcpus:1 ~quanta:2000 ~timeslice:ts ~refill_every:10 ~count;
  let share = float_of_int !capped_runs /. float_of_int !total in
  Alcotest.(check bool)
    (Printf.sprintf "capped share %.3f in [0.02, 0.07]" share)
    true
    (share >= 0.02 && share <= 0.07);
  Alcotest.(check bool) "capped still ran" true (!capped_runs > 0)

let test_weight_proportionality () =
  (* Two saturating VCPUs, weights 512 vs 256: service ratio ~2:1. *)
  let ts = 1000 in
  let sched = Credit_sched.create ~num_pcpus:1 ~timeslice_cycles:ts in
  let heavy = { Credit_sched.dom = 0; index = 0 } in
  let light = { Credit_sched.dom = 1; index = 0 } in
  Credit_sched.add_vcpu ~weight:512 sched heavy ~affinity:0;
  Credit_sched.add_vcpu ~weight:256 sched light ~affinity:0;
  Credit_sched.set_runnable sched heavy true;
  Credit_sched.set_runnable sched light true;
  let h = ref 0 and l = ref 0 in
  let count v = if v = heavy then incr h else incr l in
  drive sched ~pcpus:1 ~quanta:3000 ~timeslice:ts ~refill_every:10 ~count;
  let ratio = float_of_int !h /. float_of_int (Stdlib.max 1 !l) in
  Alcotest.(check bool)
    (Printf.sprintf "2x weight ~ 2x service (ratio %.2f)" ratio)
    true
    (ratio >= 1.7 && ratio <= 2.3)

let test_candidate_order_insertion_invariant () =
  (* The hash-order determinism class: once boosts are drained and
     credits are pairwise distinct, the schedule is a pure function of
     credit state and must not depend on the order VCPUs entered the
     scheduler's hash table. *)
  let ts = 1000 in
  let build order =
    let sched = Credit_sched.create ~num_pcpus:1 ~timeslice_cycles:ts in
    List.iter
      (fun dom ->
        let v = { Credit_sched.dom; index = 0 } in
        Credit_sched.add_vcpu sched v ~affinity:0;
        Credit_sched.set_runnable sched v true)
      order;
    (* Drain the 8 wake-up boosts (each VCPU runs exactly once while
       the others are still boosted), charging dom+1 cycles so every
       credit becomes pairwise distinct — and stays distinct below,
       because dom+1 is distinct mod 9. *)
    List.iter
      (fun _ ->
        match Credit_sched.pick sched ~pcpu:0 with
        | Some v ->
            Credit_sched.charge sched ~pcpu:0 ~cycles:(v.Credit_sched.dom + 1)
        | None -> Alcotest.fail "runnable VCPU not picked")
      order;
    sched
  in
  let a = build [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let b = build [ 7; 3; 5; 1; 6; 0; 2; 4 ] in
  let seq sched =
    List.init 64 (fun _ ->
        match Credit_sched.pick sched ~pcpu:0 with
        | Some v ->
            Credit_sched.charge sched ~pcpu:0 ~cycles:9;
            v.Credit_sched.dom
        | None -> -1)
  in
  Alcotest.(check (list int))
    "pick sequence independent of insertion order" (seq a) (seq b)

let test_remove_vcpu () =
  let ts = 1000 in
  let sched = Credit_sched.create ~num_pcpus:1 ~timeslice_cycles:ts in
  let a = { Credit_sched.dom = 0; index = 0 } in
  let b = { Credit_sched.dom = 1; index = 0 } in
  Credit_sched.add_vcpu sched a ~affinity:0;
  Credit_sched.add_vcpu sched b ~affinity:0;
  Credit_sched.set_runnable sched a true;
  Credit_sched.set_runnable sched b true;
  (match Credit_sched.pick sched ~pcpu:0 with
  | Some v -> Alcotest.(check int) "boost FIFO picks first-added" 0 v.Credit_sched.dom
  | None -> Alcotest.fail "expected a pick");
  Credit_sched.remove_vcpu sched a;
  Alcotest.(check bool) "incumbent slot cleared" true
    (Credit_sched.current sched ~pcpu:0 = None);
  (match Credit_sched.pick sched ~pcpu:0 with
  | Some v -> Alcotest.(check int) "survivor scheduled" 1 v.Credit_sched.dom
  | None -> Alcotest.fail "survivor not scheduled");
  Alcotest.check_raises "unknown vcpu"
    (Invalid_argument "Credit_sched: unknown VCPU") (fun () ->
      Credit_sched.remove_vcpu sched a);
  (* Re-adding the removed identity is legal (churn domid reuse). *)
  Credit_sched.add_vcpu sched a ~affinity:0

(* --- credit_sched against the scan-and-sort reference --------------- *)

(* The scheduler as it was before per-PCPU runqueues, kept as the test
   oracle: every [pick] folds the whole VCPU table, sorts that PCPU's
   candidates by (dom, index) and scans them; every [charge] walks the
   table to test for exhaustion, and [periodic_refill] makes two passes
   over it. *)
module Reference = struct
  type vcpu = Credit_sched.vcpu = { dom : int; index : int }

  let default_weight = 256

  type vstate = {
    affinity : int;
    weight : int;
    cap : int;
    mutable credit : int;
    mutable runnable : bool;
    mutable boosted : bool;
    mutable enqueued_at : int;
  }

  type t = {
    num_pcpus : int;
    initial_credit : int;
    vcpus : (vcpu, vstate) Hashtbl.t;
    running : vcpu option array;
    mutable stamp : int;
    mutable switch_count : int;
    mutable refill_count : int;
  }

  let create ~num_pcpus ~timeslice_cycles =
    {
      num_pcpus;
      initial_credit = 10 * timeslice_cycles;
      vcpus = Hashtbl.create 16;
      running = Array.make num_pcpus None;
      stamp = 0;
      switch_count = 0;
      refill_count = 0;
    }

  let next_stamp t =
    t.stamp <- t.stamp + 1;
    t.stamp

  let add_vcpu ~weight ~cap t vcpu ~affinity =
    if Hashtbl.mem t.vcpus vcpu then
      invalid_arg "Credit_sched.add_vcpu: duplicate VCPU";
    let initial =
      if cap = 0 then t.initial_credit
      else
        Stdlib.min t.initial_credit
          (Stdlib.max 1 (t.initial_credit * cap / 100))
    in
    Hashtbl.replace t.vcpus vcpu
      {
        affinity;
        weight;
        cap;
        credit = initial;
        runnable = false;
        boosted = false;
        enqueued_at = next_stamp t;
      }

  let state t vcpu =
    match Hashtbl.find_opt t.vcpus vcpu with
    | Some s -> s
    | None -> invalid_arg "Credit_sched: unknown VCPU"

  let remove_vcpu t vcpu =
    let s = state t vcpu in
    Hashtbl.remove t.vcpus vcpu;
    if t.running.(s.affinity) = Some vcpu then t.running.(s.affinity) <- None

  let throttled s = s.cap > 0 && s.credit <= 0

  let grant t s =
    if s.cap = 0 then
      Stdlib.max 1 (t.initial_credit * s.weight / default_weight)
    else Stdlib.max 1 (t.initial_credit * s.cap / 100)

  let ceiling t s =
    if s.cap = 0 then max_int
    else Stdlib.max 1 (t.initial_credit * s.cap / 100)

  let set_runnable t vcpu runnable =
    let s = state t vcpu in
    if runnable && not s.runnable then begin
      s.boosted <- true;
      s.enqueued_at <- next_stamp t
    end;
    s.runnable <- runnable

  let candidates t ~pcpu =
    Hashtbl.fold
      (fun vcpu s acc ->
        if s.runnable && s.affinity = pcpu && not (throttled s) then
          (vcpu, s) :: acc
        else acc)
      t.vcpus []
    |> List.sort (fun ((a : vcpu), _) ((b : vcpu), _) ->
           match Int.compare a.dom b.dom with
           | 0 -> Int.compare a.index b.index
           | c -> c)

  let better (_, a) (_, b) =
    match (a.boosted, b.boosted) with
    | true, false -> true
    | false, true -> false
    | _ when a.cap > 0 || b.cap > 0 ->
        let ua = a.credit > 0 and ub = b.credit > 0 in
        if ua <> ub then ua else a.enqueued_at < b.enqueued_at
    | _ ->
        a.credit > b.credit
        || (a.credit = b.credit && a.enqueued_at < b.enqueued_at)

  let pick t ~pcpu =
    let chosen =
      List.fold_left
        (fun best c ->
          match best with
          | None -> Some c
          | Some b -> if better c b then Some c else best)
        None (candidates t ~pcpu)
    in
    let next = Option.map fst chosen in
    (match chosen with Some (_, s) -> s.boosted <- false | None -> ());
    if next <> t.running.(pcpu) then begin
      t.switch_count <- t.switch_count + 1;
      t.running.(pcpu) <- next
    end;
    next

  let rec refill_if_exhausted t =
    let with_credit = ref false and any = ref false in
    Hashtbl.iter
      (fun _ s ->
        if s.runnable then begin
          any := true;
          if s.credit > 0 then with_credit := true
        end)
      t.vcpus;
    if !any && not !with_credit then begin
      t.refill_count <- t.refill_count + 1;
      Hashtbl.iter
        (fun _ s ->
          s.credit <- Stdlib.min (ceiling t s) (s.credit + grant t s))
        t.vcpus;
      refill_if_exhausted t
    end

  let periodic_refill t ~cycles =
    t.refill_count <- t.refill_count + 1;
    let weight_sum = Array.make t.num_pcpus 0 in
    Hashtbl.iter
      (fun _ s ->
        if s.runnable then
          weight_sum.(s.affinity) <- weight_sum.(s.affinity) + s.weight)
      t.vcpus;
    Hashtbl.iter
      (fun _ s ->
        if s.runnable && weight_sum.(s.affinity) > 0 then begin
          let fair = cycles * s.weight / weight_sum.(s.affinity) in
          let fair =
            if s.cap = 0 then fair else Stdlib.min fair (cycles * s.cap / 100)
          in
          let top = if s.cap = 0 then t.initial_credit else ceiling t s in
          s.credit <- Stdlib.min top (s.credit + fair)
        end)
      t.vcpus

  let charge t ~pcpu ~cycles =
    (match t.running.(pcpu) with
    | Some vcpu ->
        let s = state t vcpu in
        s.credit <- s.credit - cycles;
        s.enqueued_at <- next_stamp t
    | None -> ());
    refill_if_exhausted t

  let current t ~pcpu = t.running.(pcpu)
  let credit_of t vcpu = (state t vcpu).credit
end

type sched_op =
  | Add of { vcpu : Credit_sched.vcpu; weight : int; cap : int; affinity : int }
  | Remove of Credit_sched.vcpu
  | Set_runnable of Credit_sched.vcpu * bool
  | Pick of int
  | Charge of int * int
  | Refill of int

let show_vcpu (v : Credit_sched.vcpu) =
  Printf.sprintf "d%d.%d" v.Credit_sched.dom v.Credit_sched.index

let show_op = function
  | Add { vcpu; weight; cap; affinity } ->
      Printf.sprintf "add %s w%d c%d @%d" (show_vcpu vcpu) weight cap affinity
  | Remove v -> "remove " ^ show_vcpu v
  | Set_runnable (v, b) -> Printf.sprintf "runnable %s %b" (show_vcpu v) b
  | Pick p -> Printf.sprintf "pick %d" p
  | Charge (p, c) -> Printf.sprintf "charge %d %d" p c
  | Refill c -> Printf.sprintf "refill %d" c

(* Mixed weights and caps over at most 16 VCPUs: every runqueue that
   holds a capped or off-weight VCPU takes the scan. *)
let sched_case_gen =
  let open QCheck.Gen in
  let vcpu =
    map2 (fun dom index -> { Credit_sched.dom; index }) (int_bound 7)
      (int_bound 1)
  in
  int_range 1 3 >>= fun pcpus ->
  let pcpu = int_bound (pcpus - 1) in
  let op =
    frequency
      [
        ( 3,
          map
            (fun (vcpu, weight, cap, affinity) ->
              Add { vcpu; weight; cap; affinity })
            (quad vcpu (oneofl [ 128; 256; 512 ]) (oneofl [ 0; 0; 25; 50; 100 ])
               pcpu) );
        (1, map (fun v -> Remove v) vcpu);
        (4, map2 (fun v b -> Set_runnable (v, b)) vcpu bool);
        (4, map (fun p -> Pick p) pcpu);
        (4, map2 (fun p c -> Charge (p, c)) pcpu (int_bound 3000));
        (1, map (fun c -> Refill c) (int_bound 5000));
      ]
  in
  pair (return pcpus) (list_size (int_bound 200) op)

(* Uncapped default-weight VCPUs, the only kind the CLI's fleets make:
   every runqueue stays ordered. Up to 256 domids on one or two PCPUs,
   most of them runnable, so runqueues run deep; refills come often
   and are sometimes large enough to lift many balances to the clamp. *)
let uniform_op ~pcpus =
  let open QCheck.Gen in
  let vcpu = map (fun dom -> { Credit_sched.dom; index = 0 }) (int_bound 255) in
  let pcpu = int_bound (pcpus - 1) in
  frequency
    [
      ( 4,
        map2
          (fun vcpu affinity -> Add { vcpu; weight = 256; cap = 0; affinity })
          vcpu pcpu );
      (1, map (fun v -> Remove v) vcpu);
      (4, map2 (fun v b -> Set_runnable (v, b)) vcpu (frequencyl [ (3, true); (1, false) ]));
      (4, map (fun p -> Pick p) pcpu);
      (4, map2 (fun p c -> Charge (p, c)) pcpu (int_bound 3000));
      ( 2,
        map (fun c -> Refill c)
          (frequency [ (3, int_bound 5000); (1, int_bound 200_000) ]) );
    ]

let uniform_case_gen =
  let open QCheck.Gen in
  int_range 1 2 >>= fun pcpus ->
  pair (return pcpus) (list_size (return 1000) (uniform_op ~pcpus))

(* One capped or off-weight VCPU joins and leaves a long uniform
   runqueue: PCPU 0 starts with 32 to 128 runnable default-weight
   VCPUs, and the odd one wakes and blocks among the uniform ops. Its
   first wake turns the runqueue from the ordered layout to the scan,
   which the runqueue keeps after it blocks. *)
let join_case_gen =
  let open QCheck.Gen in
  int_range 1 2 >>= fun pcpus ->
  int_range 32 128 >>= fun depth ->
  oneofl [ (512, 0); (128, 0); (256, 25); (256, 50); (256, 100) ]
  >>= fun (weight, cap) ->
  let odd = { Credit_sched.dom = 300; index = 0 } in
  let fill =
    List.concat_map
      (fun dom ->
        let vcpu = { Credit_sched.dom; index = 1 } in
        [ Add { vcpu; weight = 256; cap = 0; affinity = 0 };
          Set_runnable (vcpu, true) ])
      (List.init depth Fun.id)
  in
  let op =
    frequency
      [ (6, uniform_op ~pcpus); (1, map (fun b -> Set_runnable (odd, b)) bool) ]
  in
  list_size (int_range 200 500) op >>= fun ops ->
  return
    ( pcpus,
      fill @ (Add { vcpu = odd; weight; cap; affinity = 0 } :: ops) )

(* The outcome of one call: its value, or the Invalid_argument message. *)
let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* Picks, credits, switch and refill counts agree with the scan-and-sort
   scheduler after every step. [shrink] is off for the long programs:
   the failure names the step that diverged, and each shrink attempt
   would replay up to a thousand steps. *)
let sched_matches_reference ?(shrink = true) ~name ~count gen =
  QCheck.Test.make ~name ~count
    (QCheck.make
       ~print:(fun (pcpus, ops) ->
         Printf.sprintf "%d PCPUs: %s" pcpus
           (String.concat "; " (List.map show_op ops)))
       ~shrink:
         (if shrink then QCheck.Shrink.(pair nil list) else QCheck.Shrink.nil)
       gen)
    (fun (pcpus, ops) ->
      let ts = 100 in
      let sched = Credit_sched.create ~num_pcpus:pcpus ~timeslice_cycles:ts in
      let model = Reference.create ~num_pcpus:pcpus ~timeslice_cycles:ts in
      let added = ref [] in
      let step op =
        match op with
        | Add { vcpu; weight; cap; affinity } ->
            if not (List.mem vcpu !added) then added := vcpu :: !added;
            outcome (fun () ->
                Credit_sched.add_vcpu ~weight ~cap sched vcpu ~affinity)
            = outcome (fun () ->
                  Reference.add_vcpu ~weight ~cap model vcpu ~affinity)
        | Remove v ->
            outcome (fun () -> Credit_sched.remove_vcpu sched v)
            = outcome (fun () -> Reference.remove_vcpu model v)
        | Set_runnable (v, b) ->
            outcome (fun () -> Credit_sched.set_runnable sched v b)
            = outcome (fun () -> Reference.set_runnable model v b)
        | Pick pcpu ->
            outcome (fun () -> Credit_sched.pick sched ~pcpu)
            = outcome (fun () -> Reference.pick model ~pcpu)
        | Charge (pcpu, cycles) ->
            outcome (fun () -> Credit_sched.charge sched ~pcpu ~cycles)
            = outcome (fun () -> Reference.charge model ~pcpu ~cycles)
        | Refill cycles ->
            Credit_sched.periodic_refill sched ~cycles;
            Reference.periodic_refill model ~cycles;
            true
      in
      let agree () =
        List.for_all
          (fun pcpu ->
            Credit_sched.current sched ~pcpu = Reference.current model ~pcpu)
          (List.init pcpus Fun.id)
        && List.for_all
             (fun v ->
               outcome (fun () -> Credit_sched.credit_of sched v)
               = outcome (fun () -> Reference.credit_of model v))
             !added
        && Credit_sched.switches sched = model.Reference.switch_count
        && Credit_sched.refills sched = model.Reference.refill_count
      in
      List.for_all
        (fun (i, op) ->
          (step op && agree ())
          || QCheck.Test.fail_reportf "diverged at step %d, %s" i (show_op op))
        (List.mapi (fun i op -> (i, op)) ops))

let () =
  Alcotest.run "fleet"
    [
      ( "pool",
        [
          Alcotest.test_case "domid reuse lowest-first" `Quick test_pool_reuse;
          Alcotest.test_case "retire is single-shot" `Quick
            test_pool_retire_dead;
        ] );
      ( "descriptor",
        [ Alcotest.test_case "mix pattern + validation" `Quick test_descriptor_mix ] );
      ( "boot-storm",
        [
          Alcotest.test_case "smoke at 16 VMs" `Quick test_boot_storm_smoke;
          Alcotest.test_case "deterministic at 64 VMs" `Quick
            test_boot_storm_deterministic;
          Alcotest.test_case "256 VMs complete deterministically" `Quick
            test_boot_storm_256;
          Alcotest.test_case "ready time monotone in fleet size" `Quick
            test_boot_storm_monotone_in_size;
          Alcotest.test_case "a renamed model keeps its markers" `Quick
            test_boot_storm_renamed_model;
          qcheck prop_boot_storm_work_conserving;
        ] );
      ( "churn",
        [
          Alcotest.test_case "admit/retire/reuse invariants" `Quick
            test_churn_smoke;
          Alcotest.test_case "deterministic" `Quick test_churn_deterministic;
        ] );
      ( "noisy-neighbor",
        [
          Alcotest.test_case "p99 monotone on all five models" `Quick
            test_noisy_monotone_all_models;
          Alcotest.test_case "deterministic" `Quick test_noisy_deterministic;
        ] );
      ( "batch",
        [
          Alcotest.test_case "reproduces the manual oversub sched" `Quick
            test_batch_matches_manual_sched;
          Alcotest.test_case "validation" `Quick test_batch_validation;
        ] );
      ( "credit-overcommit",
        [
          Alcotest.test_case "fairness at 8 VCPUs per PCPU" `Quick
            test_fairness_8_per_pcpu;
          Alcotest.test_case "cap enforcement at 9 VCPUs per PCPU" `Quick
            test_cap_enforcement;
          Alcotest.test_case "weight proportionality" `Quick
            test_weight_proportionality;
          Alcotest.test_case "pick order insertion-invariant" `Quick
            test_candidate_order_insertion_invariant;
          Alcotest.test_case "remove_vcpu (churn departures)" `Quick
            test_remove_vcpu;
          qcheck
            (sched_matches_reference ~count:500
               ~name:"runqueue picks match the scan-and-sort scheduler"
               sched_case_gen);
          qcheck
            (sched_matches_reference ~shrink:false ~count:60
               ~name:"ordered runqueues match the scan-and-sort scheduler"
               uniform_case_gen);
          qcheck
            (sched_matches_reference ~shrink:false ~count:60
               ~name:"a capped or off-weight VCPU joins and leaves a long \
                      runqueue"
               join_case_gen);
        ] );
    ]
