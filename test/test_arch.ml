(* Tests for Armvirt_arch: register classes, the calibrated cost model,
   the machine abstraction and the ARM/x86 architectural operations. *)

module Cycles = Armvirt_engine.Cycles
module Sim = Armvirt_engine.Sim
module Counter = Armvirt_stats.Counter
module Reg_class = Armvirt_arch.Reg_class
module Cost_model = Armvirt_arch.Cost_model
module Machine = Armvirt_arch.Machine
module Arm_ops = Armvirt_arch.Arm_ops
module X86_ops = Armvirt_arch.X86_ops
module Transitions = Armvirt_arch.Transitions
module Marker = Armvirt_obs.Marker
module Span = Armvirt_obs.Span
module Accounting = Armvirt_obs.Accounting

let arm_machine ?(vhe = false) () =
  let sim = Sim.create () in
  let cost =
    Cost_model.Arm (if vhe then Cost_model.arm_vhe else Cost_model.arm_default)
  in
  Machine.create sim ~cost ~num_cpus:8

let x86_machine () =
  let sim = Sim.create () in
  Machine.create sim ~cost:(Cost_model.X86 Cost_model.x86_default) ~num_cpus:8

let in_process machine f =
  Sim.spawn (Machine.sim machine) ~name:"test" f;
  Sim.run (Machine.sim machine)

let total_spent m =
  List.fold_left
    (fun acc (o : Accounting.spent) -> acc + o.cycles)
    0 (Machine.op_cycles m)

(* --- Reg_class ----------------------------------------------------- *)

let test_reg_class_sets () =
  Alcotest.(check int) "seven classes (Table III rows)" 7
    (List.length Reg_class.all);
  Alcotest.(check bool) "full switch covers all" true
    (Reg_class.full_world_switch = Reg_class.all);
  Alcotest.(check (list string)) "trap-only is GP" [ "GP Regs" ]
    (List.map Reg_class.to_string Reg_class.trap_only)

(* --- Cost_model ----------------------------------------------------- *)

let test_table_iii_values () =
  let hw = Cost_model.arm_default in
  let check cls save restore =
    let c = hw.Cost_model.reg cls in
    Alcotest.(check int)
      (Reg_class.to_string cls ^ " save")
      save c.Cost_model.save;
    Alcotest.(check int)
      (Reg_class.to_string cls ^ " restore")
      restore c.Cost_model.restore
  in
  check Reg_class.Gp 152 184;
  check Reg_class.Fp 282 310;
  check Reg_class.El1_sys 230 511;
  check Reg_class.Vgic 3250 181;
  check Reg_class.Timer 104 106;
  check Reg_class.El2_config 92 107;
  check Reg_class.El2_virtual_memory 92 107

let test_full_switch_sums () =
  let hw = Cost_model.arm_default in
  (* The paper's Table III totals: 4,202 to save, 1,506 to restore. *)
  Alcotest.(check int) "full save" 4202 (Cost_model.arm_full_save hw);
  Alcotest.(check int) "full restore" 1506 (Cost_model.arm_full_restore hw)

let test_vgic_asymmetry () =
  (* The key asymmetry of section IV: saving (reading the GIC) costs far
     more than restoring. *)
  let hw = Cost_model.arm_default in
  let vgic = hw.Cost_model.reg Reg_class.Vgic in
  Alcotest.(check bool) "save >> restore" true
    (vgic.Cost_model.save > 10 * vgic.Cost_model.restore)

let test_copy_cost () =
  Alcotest.(check int) "zero bytes free" 0
    (Cost_model.copy_cost ~per_byte:0.25 ~bytes:0);
  Alcotest.(check int) "rounding" 250
    (Cost_model.copy_cost ~per_byte:0.25 ~bytes:1000);
  Alcotest.(check int) "minimum one cycle" 1
    (Cost_model.copy_cost ~per_byte:0.25 ~bytes:1);
  Alcotest.check_raises "negative"
    (Invalid_argument "Cost_model.copy_cost: negative size") (fun () ->
      ignore (Cost_model.copy_cost ~per_byte:0.25 ~bytes:(-1)))

let test_platform_frequencies () =
  Alcotest.(check (float 1e-9)) "ARM 2.4 GHz" 2.4
    (Cost_model.freq_ghz (Cost_model.Arm Cost_model.arm_default));
  Alcotest.(check (float 1e-9)) "x86 2.1 GHz" 2.1
    (Cost_model.freq_ghz (Cost_model.X86 Cost_model.x86_default));
  Alcotest.(check bool) "vhe flag" true Cost_model.arm_vhe.Cost_model.vhe;
  Alcotest.(check bool) "default no vhe" false
    Cost_model.arm_default.Cost_model.vhe

(* --- Machine -------------------------------------------------------- *)

let test_machine_spend_accounts () =
  let m = arm_machine () in
  in_process m (fun () ->
      Machine.spend (Machine.op m Other "test.op") 100;
      Machine.spend (Machine.op m Other "test.op") 20;
      Machine.count (Machine.marker m (Marker.op ~hyp:"test" Other "events")));
  Alcotest.(check int) "label total" 120 (Counter.get (Machine.counters m) "test.op");
  Alcotest.(check int) "op cycles sum" 120 (total_spent m);
  Alcotest.(check int) "event count" 1
    (Counter.get (Machine.counters m) "test.events");
  Alcotest.(check int) "simulated time advanced" 120
    (Cycles.to_int (Sim.now (Machine.sim m)))

(* Cycle conservation in the accounting layer: every spend lands on its
   own label, the op totals sum to every cycle spent, and simulated time
   advances by as much. *)
let prop_spend_conserves_cycles =
  let labels = [| "step.a"; "step.b"; "step.c"; "step.d" |] in
  QCheck.Test.make ~name:"spend conserves cycles per label and in total"
    QCheck.(list (pair (int_bound 3) (int_bound 5000)))
    (fun spends ->
      let m = arm_machine () in
      in_process m (fun () ->
          List.iter
            (fun (i, n) -> Machine.spend (Machine.op m Other labels.(i)) n)
            spends);
      let get = Counter.get (Machine.counters m) in
      let sum label =
        List.fold_left
          (fun acc (i, n) -> if labels.(i) = label then acc + n else acc)
          0 spends
      in
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 spends in
      Array.for_all (fun label -> get label = sum label) labels
      && total_spent m = total
      && Cycles.to_int (Sim.now (Machine.sim m)) = total)

(* Interned ops and markers against label-keyed references: two machines
   share one sim and one process, so their spends interleave on one
   clock. Each machine's counters must equal a reference counter fed by
   label; its sink must see exactly the (label, cycles, now) spend
   sequence and (marker, label, now) count sequence a label-keyed replay
   predicts, each op with the category it was interned with and each
   marker with [Marker.category]; and [Machine.markers] and
   [Machine.op_cycles] must list each touched marker and op once with
   its declared category and lane and its total, however often it was
   interned. The ops span several categories and both lanes, so a
   declaration taken from the wrong op shows. *)
let traffic_ops =
  [|
    ("arm.save.GP Regs", Span.Other, Accounting.Hypervisor);
    ("netperf.host_rx_path", Io, Hypervisor);
    ("migrate.copy", Migrate, Hypervisor);
    ("xen_arm.sched_pick", Sched, Hypervisor);
    ("netperf.vm_processing", Io, Guest);
    ("plain", Other, Hypervisor);
  |]

let op_label (label, _, _) = label

let traffic_markers =
  [|
    Marker.exit ~hyp:"kvm_arm" ~reason:Marker.Hvc ~pcpu:4;
    Marker.entry ~domid:1 ~hyp:"kvm_arm" ~pcpu:4 ();
    Marker.port ~switch:"s0" ~port:1 Marker.Rx;
    Marker.op ~hyp:"kvm_arm" Trap "hypercall";
    Marker.flood ~switch:"s0";
    Marker.uplink ~switch:"s0" ~uplink:0 Marker.Tx;
  |]

type traffic = Spend of int * int * int | Count of int * int

let traffic_gen =
  QCheck.Gen.(
    let m = int_bound 1 in
    oneof
      [
        map3
          (fun m l c -> Spend (m, l, c))
          m
          (int_bound (Array.length traffic_ops - 1))
          (int_bound 5000);
        map2
          (fun m l -> Count (m, l))
          m
          (int_bound (Array.length traffic_markers - 1));
      ])

let prop_interned_traffic_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"interned ops and markers match label-keyed references"
    QCheck.(
      make
        ~print:(fun steps ->
          String.concat "; "
            (List.map
               (function
                 | Spend (m, l, c) ->
                     Printf.sprintf "spend m%d %s %d" m
                       (op_label traffic_ops.(l)) c
                 | Count (m, l) ->
                     Printf.sprintf "count m%d %s" m
                       (Marker.label traffic_markers.(l)))
               steps))
        Gen.(list_size (int_bound 80) traffic_gen))
    (fun steps ->
      let sim = Sim.create () in
      let cost = Cost_model.Arm Cost_model.arm_default in
      let machines = Array.init 2 (fun _ -> Machine.create sim ~cost ~num_cpus:8) in
      (* Interned at build time, as the models do, and every marker a
         second time: a re-interned label is the same counter. *)
      let ops =
        Array.map
          (fun m ->
            Array.map (fun (label, cat, lane) -> Machine.op m ~lane cat label)
              traffic_ops)
          machines
      in
      let declared label =
        List.find (fun o -> op_label o = label) (Array.to_list traffic_ops)
      in
      let markers =
        Array.map (fun m -> Array.map (Machine.marker m) traffic_markers) machines
      in
      Array.iter
        (fun m -> Array.iter (fun mk -> ignore (Machine.marker m mk)) traffic_markers)
        machines;
      let seen = Array.make 2 [] and seen_count = Array.make 2 []
      and cats_ok = ref true in
      let check_cat cat want = if cat <> want then cats_ok := false in
      Array.iteri
        (fun i m ->
          Machine.attach m
            (Some
               {
                 Machine.spend =
                   (fun ~id:_ ~label ~cat ~cycles ~now ->
                     let _, want, _ = declared label in
                     check_cat cat want;
                     seen.(i) <- (label, cycles, Cycles.to_int now) :: seen.(i));
                 count =
                   (fun ~id:_ ~marker ~label ~cat ~now ->
                     check_cat cat (Marker.category marker);
                     seen_count.(i) <-
                       (marker, label, Cycles.to_int now) :: seen_count.(i));
               }))
        machines;
      Sim.spawn sim ~name:"traffic" (fun () ->
          List.iter
            (function
              | Spend (m, l, c) -> Machine.spend ops.(m).(l) c
              | Count (m, l) -> Machine.count markers.(m).(l))
            steps);
      Sim.run sim;
      (* The label-keyed replay. *)
      let refs = Array.init 2 (fun _ -> Reference_counter.create_set ()) in
      let spends = Array.make 2 [] and counts = Array.make 2 [] in
      let now = ref 0 in
      List.iter
        (function
          | Spend (m, l, c) ->
              let label = op_label traffic_ops.(l) in
              Reference_counter.add refs.(m) label c;
              now := !now + c;
              spends.(m) <- (label, c, !now) :: spends.(m)
          | Count (m, l) ->
              let marker = traffic_markers.(l) in
              let label = Marker.label marker in
              Reference_counter.incr refs.(m) label;
              counts.(m) <- (marker, label, !now) :: counts.(m))
        steps;
      let labels =
        List.map op_label (Array.to_list traffic_ops)
        @ List.map Marker.label (Array.to_list traffic_markers)
      in
      let counters_agree i =
        let set = Machine.counters machines.(i) in
        Counter.names set = Reference_counter.names refs.(i)
        && List.for_all
             (fun name -> Counter.get set name = Reference_counter.get refs.(i) name)
             labels
      in
      (* Touched markers, each once, in intern order, and touched ops by
         label, with their totals. *)
      let snapshots_agree i =
        let touched xs key =
          List.filter_map
            (fun x ->
              let name = key x in
              if List.mem name (Reference_counter.names refs.(i)) then
                Some (x, Reference_counter.get refs.(i) name)
              else None)
            (Array.to_list xs)
        in
        List.map
          (fun (o : Accounting.spent) -> ((o.label, o.cat, o.lane), o.cycles))
          (Machine.op_cycles machines.(i))
        = List.sort compare (touched traffic_ops op_label)
        && Machine.markers machines.(i) = touched traffic_markers Marker.label
      in
      !cats_ok
      && List.for_all
           (fun i ->
             counters_agree i && snapshots_agree i && seen.(i) = spends.(i)
             && seen_count.(i) = counts.(i))
           [ 0; 1 ])

(* A label is an op or a marker on one machine, never both: stat rows
   come from the markers and cycle attribution from the ops. *)
let test_op_and_marker_disjoint () =
  let m = arm_machine () in
  let hc = Marker.op ~hyp:"kvm_arm" Trap "hypercall" in
  Machine.count (Machine.marker m hc);
  Machine.count (Machine.marker m hc);
  Alcotest.(check bool) "a re-interned marker shares its counter" true
    (Machine.markers m = [ (hc, 2) ]);
  ignore (Machine.op m Trap "kvm_arm.host_dispatch");
  Alcotest.check_raises "marker label as an op"
    (Invalid_argument "Machine.op: \"kvm_arm.hypercall\" is already a marker")
    (fun () -> ignore (Machine.op m Trap "kvm_arm.hypercall"));
  Alcotest.check_raises "op label as a marker"
    (Invalid_argument
       "Machine.marker: \"kvm_arm.host_dispatch\" is already an op")
    (fun () ->
      ignore (Machine.marker m (Marker.op ~hyp:"kvm_arm" Trap "host_dispatch")))

(* A label string where Machine.marker wants a typed marker does not
   compile: compile_fail/dune compiles such a line against the built
   libraries, and its error must be exactly that type mismatch. *)
let test_string_marker_is_a_type_error () =
  let err =
    In_channel.with_open_bin
      (Filename.concat "compile_fail" "string_marker.err")
      In_channel.input_all
  in
  let words s =
    String.concat " "
      (List.filter (( <> ) "")
         (String.split_on_char ' '
            (String.map (function '\n' | '\t' -> ' ' | c -> c) s)))
  in
  let want =
    "Error: This expression has type string but an expression was expected \
     of type Armvirt_obs.Marker.t"
  in
  let got = words err in
  let n = String.length want in
  let rec found i =
    i + n <= String.length got && (String.sub got i n = want || found (i + 1))
  in
  if not (found 0) then
    Alcotest.failf "expected the type error %S, the compiler said:\n%s" want err

(* The exit/entry marker table: labels are the Marker builders' bytes,
   a repeated lookup returns the same interned marker, domids grow the
   per-PCPU table, and a negative domid is rejected. *)
let test_transitions_table () =
  let m = arm_machine () in
  let tr = Transitions.create m ~hyp:"kvm_arm" in
  let first = Transitions.exit tr Marker.Hvc ~pcpu:4 in
  Alcotest.(check bool) "cached" true
    (first == Transitions.exit tr Marker.Hvc ~pcpu:4);
  List.iter Machine.count
    [
      first;
      Transitions.exit tr Marker.Hvc ~pcpu:4;
      Transitions.exit tr Marker.Irq ~pcpu:5;
      Transitions.entry tr ~pcpu:4;
      Transitions.entry ~domid:40 tr ~pcpu:4;
      Transitions.entry ~domid:2 tr ~pcpu:4;
    ];
  let set = Machine.counters m in
  Alcotest.(check (list (pair string int)))
    "labels and counts"
    (List.map
       (fun (m, n) -> (Marker.label m, n))
       [
         (Marker.entry ~hyp:"kvm_arm" ~pcpu:4 (), 1);
         (Marker.entry ~domid:2 ~hyp:"kvm_arm" ~pcpu:4 (), 1);
         (Marker.entry ~domid:40 ~hyp:"kvm_arm" ~pcpu:4 (), 1);
         (Marker.exit ~hyp:"kvm_arm" ~reason:Marker.Hvc ~pcpu:4, 2);
         (Marker.exit ~hyp:"kvm_arm" ~reason:Marker.Irq ~pcpu:5, 1);
       ])
    (List.map (fun n -> (n, Counter.get set n)) (Counter.names set));
  Alcotest.check_raises "negative domid"
    (Invalid_argument "Transitions.entry: negative domid") (fun () ->
      ignore (Transitions.entry ~domid:(-1) tr ~pcpu:4))

let test_machine_validation () =
  let sim = Sim.create () in
  Alcotest.check_raises "no cpus"
    (Invalid_argument "Machine.create: num_cpus < 1") (fun () ->
      ignore
        (Machine.create sim ~cost:(Cost_model.Arm Cost_model.arm_default)
           ~num_cpus:0));
  let m = arm_machine () in
  Alcotest.(check int) "num cpus" 8 (Machine.num_cpus m)

let test_machine_elapsed_us () =
  let m = arm_machine () in
  Alcotest.(check (float 1e-9)) "2400 cycles = 1us at 2.4GHz" 1.0
    (Machine.elapsed_us m (Cycles.of_int 2400))

(* --- Arm_ops -------------------------------------------------------- *)

let spent m label = Counter.get (Machine.counters m) label

let test_arm_ops_costs () =
  let m = arm_machine () in
  let ops = Arm_ops.create m in
  in_process m (fun () ->
      Arm_ops.trap_to_el2 ops;
      Arm_ops.eret ops;
      Arm_ops.virq_complete ops);
  Alcotest.(check int) "trap" 76 (spent m "arm.trap_to_el2");
  Alcotest.(check int) "eret" 64 (spent m "arm.eret");
  Alcotest.(check int) "virq completion is the paper's 71" 71
    (spent m "arm.virq_complete")

let test_arm_ops_save_restore () =
  let m = arm_machine () in
  let ops = Arm_ops.create m in
  in_process m (fun () ->
      Arm_ops.save_classes ops Armvirt_arch.Reg_class.full_world_switch;
      Arm_ops.restore_classes ops Armvirt_arch.Reg_class.full_world_switch);
  Alcotest.(check int) "total = Table III sums" (4202 + 1506)
    (total_spent m);
  Alcotest.(check int) "vgic save attributed" 3250
    (spent m "arm.save.VGIC Regs")

let test_arm_ops_class_labels () =
  List.iter
    (fun cls ->
      let name = Armvirt_arch.Reg_class.to_string cls in
      Alcotest.(check string) ("save " ^ name) ("arm.save." ^ name)
        (Arm_ops.save_label cls);
      Alcotest.(check string) ("restore " ^ name) ("arm.restore." ^ name)
        (Arm_ops.restore_label cls))
    Armvirt_arch.Reg_class.all

let test_arm_ops_vhe_elides_toggles () =
  let m = arm_machine ~vhe:true () in
  let ops = Arm_ops.create m in
  Alcotest.(check bool) "vhe on" true (Arm_ops.vhe_enabled ops);
  in_process m (fun () ->
      Arm_ops.stage2_disable ops;
      Arm_ops.stage2_enable ops);
  Alcotest.(check int) "toggles are free under VHE" 0 (total_spent m)

let test_arm_ops_rejects_x86_machine () =
  let m = x86_machine () in
  Alcotest.check_raises "arch mismatch"
    (Invalid_argument "Arm_ops.create: machine has an x86 cost model")
    (fun () -> ignore (Arm_ops.create m))

(* --- X86_ops -------------------------------------------------------- *)

let test_x86_ops_costs () =
  let m = x86_machine () in
  let ops = X86_ops.create m in
  in_process m (fun () ->
      X86_ops.vmexit ops;
      X86_ops.vmentry ops);
  Alcotest.(check int) "vmexit" 480 (spent m "x86.vmexit");
  Alcotest.(check int) "vmentry" 650 (spent m "x86.vmentry")

let test_x86_eoi_traps_without_vapic () =
  let m = x86_machine () in
  let ops = X86_ops.create m in
  Alcotest.(check bool) "no vapic on the E5-2450" false (X86_ops.vapic_enabled ops);
  in_process m (fun () -> X86_ops.eoi ops);
  (* EOI = vmexit + emulation + vmentry: the Table II ~1.5k cycles. *)
  Alcotest.(check int) "EOI pays a full exit" (480 + 426 + 650) (total_spent m)

let test_x86_eoi_with_vapic () =
  let sim = Sim.create () in
  let hw = { Cost_model.x86_default with Cost_model.vapic = true } in
  let m = Machine.create sim ~cost:(Cost_model.X86 hw) ~num_cpus:8 in
  let ops = X86_ops.create m in
  in_process m (fun () -> X86_ops.eoi ops);
  Alcotest.(check int) "vAPIC completes like ARM" 71 (total_spent m)

let test_x86_ops_rejects_arm_machine () =
  let m = arm_machine () in
  Alcotest.check_raises "arch mismatch"
    (Invalid_argument "X86_ops.create: machine has an ARM cost model")
    (fun () -> ignore (X86_ops.create m))

let prop_save_restore_additive =
  QCheck.Test.make ~name:"save cost of a class list is the sum of classes"
    (QCheck.make
       (QCheck.Gen.shuffle_l Reg_class.all))
    (fun classes ->
      let hw = Cost_model.arm_default in
      Cost_model.arm_save hw classes
      = List.fold_left
          (fun acc c -> acc + (hw.Cost_model.reg c).Cost_model.save)
          0 classes)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "arch"
    [
      ( "reg_class",
        [ Alcotest.test_case "class sets" `Quick test_reg_class_sets ] );
      ( "cost_model",
        [
          Alcotest.test_case "Table III values" `Quick test_table_iii_values;
          Alcotest.test_case "full switch sums" `Quick test_full_switch_sums;
          Alcotest.test_case "VGIC asymmetry" `Quick test_vgic_asymmetry;
          Alcotest.test_case "copy cost" `Quick test_copy_cost;
          Alcotest.test_case "platform frequencies" `Quick
            test_platform_frequencies;
        ]
        @ qcheck [ prop_save_restore_additive ] );
      ( "machine",
        [
          Alcotest.test_case "spend accounts" `Quick test_machine_spend_accounts;
          Alcotest.test_case "validation" `Quick test_machine_validation;
          Alcotest.test_case "elapsed us" `Quick test_machine_elapsed_us;
        ]
        @ qcheck [ prop_spend_conserves_cycles ]
        @ [
            Alcotest.test_case "transitions table" `Quick test_transitions_table;
          ]
        @ qcheck [ prop_interned_traffic_matches_reference ]
        @ [
            Alcotest.test_case "op and marker labels disjoint" `Quick
              test_op_and_marker_disjoint;
            Alcotest.test_case "string marker is a type error" `Quick
              test_string_marker_is_a_type_error;
          ] );
      ( "arm_ops",
        [
          Alcotest.test_case "primitive costs" `Quick test_arm_ops_costs;
          Alcotest.test_case "save/restore accounting" `Quick
            test_arm_ops_save_restore;
          Alcotest.test_case "class labels" `Quick test_arm_ops_class_labels;
          Alcotest.test_case "VHE elides toggles" `Quick
            test_arm_ops_vhe_elides_toggles;
          Alcotest.test_case "rejects x86 machine" `Quick
            test_arm_ops_rejects_x86_machine;
        ] );
      ( "x86_ops",
        [
          Alcotest.test_case "vmexit/vmentry costs" `Quick test_x86_ops_costs;
          Alcotest.test_case "EOI traps without vAPIC" `Quick
            test_x86_eoi_traps_without_vapic;
          Alcotest.test_case "EOI with vAPIC" `Quick test_x86_eoi_with_vapic;
          Alcotest.test_case "rejects ARM machine" `Quick
            test_x86_ops_rejects_arm_machine;
        ] );
    ]
