(* Tests for Armvirt_core: platforms, the transcribed paper data and the
   experiment registry. *)

module Platform = Armvirt_core.Platform
module Paper_data = Armvirt_core.Paper_data
module Experiment = Armvirt_core.Experiment
module Report = Armvirt_core.Report
module Hypervisor = Armvirt_hypervisor.Hypervisor

(* --- Platform ---------------------------------------------------------- *)

let test_platform_machines_isolated () =
  let m1 = Platform.machine Arm_m400 in
  let m2 = Platform.machine Arm_m400 in
  Alcotest.(check bool) "fresh simulation worlds" true
    (Armvirt_arch.Machine.sim m1 != Armvirt_arch.Machine.sim m2)

let test_platform_hypervisors () =
  let check p id name kind arch =
    let hyp = Platform.hypervisor p id in
    Alcotest.(check string) "name" name hyp.Hypervisor.name;
    Alcotest.(check bool) "kind" true (hyp.Hypervisor.kind = kind);
    Alcotest.(check bool) "arch" true (hyp.Hypervisor.arch = arch)
  in
  check Platform.Arm_m400 Platform.Kvm "KVM ARM" Hypervisor.Type2 Hypervisor.Arm;
  check Platform.Arm_m400 Platform.Xen "Xen ARM" Hypervisor.Type1 Hypervisor.Arm;
  check Platform.X86_r320 Platform.Kvm "KVM x86" Hypervisor.Type2 Hypervisor.X86;
  check Platform.X86_r320 Platform.Xen "Xen x86" Hypervisor.Type1 Hypervisor.X86;
  check Platform.Arm_m400_vhe Platform.Kvm "KVM ARM (VHE)" Hypervisor.Type2
    Hypervisor.Arm

let test_platform_vhe_rejects_xen () =
  Alcotest.(check bool) "type 1 does not set E2H" true
    (match Platform.hypervisor Arm_m400_vhe Xen with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_platform_native () =
  let native = Platform.native X86_r320 in
  Alcotest.(check string) "native" "Native" native.Hypervisor.name;
  Alcotest.(check bool) "x86 arch" true (native.Hypervisor.arch = Hypervisor.X86)

(* --- Paper_data ---------------------------------------------------------- *)

let test_paper_table2_shape () =
  Alcotest.(check int) "seven microbenchmarks" 7 (List.length Paper_data.table2);
  List.iter
    (fun (name, q) ->
      Alcotest.(check bool) (name ^ " values positive") true
        (q.Paper_data.kvm_arm > 0 && q.Paper_data.xen_arm > 0
       && q.Paper_data.kvm_x86 > 0 && q.Paper_data.xen_x86 > 0))
    Paper_data.table2

let test_paper_table3_sums () =
  let save = List.fold_left (fun a (_, s, _) -> a + s) 0 Paper_data.table3 in
  let restore = List.fold_left (fun a (_, _, r) -> a + r) 0 Paper_data.table3 in
  Alcotest.(check int) "save sum" 4202 save;
  Alcotest.(check int) "restore sum" 1506 restore

let test_paper_fig4_xen_x86_apache_missing () =
  let apache =
    List.find (fun e -> e.Paper_data.workload = "Apache") Paper_data.fig4
  in
  Alcotest.(check bool) "Dom0 kernel panic" true
    (apache.Paper_data.f_xen_x86 = None);
  Alcotest.(check bool) "other columns present" true
    (apache.Paper_data.f_kvm_arm <> None && apache.Paper_data.f_xen_arm <> None)

let test_paper_table5_consistency () =
  let row name =
    List.find (fun r -> r.Paper_data.metric = name) Paper_data.table5
  in
  let time = row "Time/trans (us)" in
  (* trans/s and time/trans agree: 1e6 / 41.8 ~ 23,923. *)
  (match (row "Trans/s").Paper_data.native with
  | Some t ->
      Alcotest.(check bool) "native rate vs time" true
        (Float.abs ((1e6 /. Option.get time.Paper_data.native) -. t) < 150.0)
  | None -> Alcotest.fail "native trans/s missing");
  match ((row "Overhead (us)").Paper_data.kvm, time.Paper_data.kvm) with
  | Some o, Some t ->
      Alcotest.(check (float 0.11)) "overhead = time - native" (t -. 41.8) o
  | _ -> Alcotest.fail "kvm columns missing"

(* --- Experiment ----------------------------------------------------------- *)

let test_experiment_table2_close_to_paper () =
  let rows = Experiment.table2 ~iterations:2 () in
  Alcotest.(check int) "seven rows" 7 (List.length rows);
  List.iter
    (fun { Experiment.micro; measured } ->
      let paper = List.assoc micro Paper_data.table2 in
      let close field label =
        let m = field measured and p = field paper in
        let tolerance = Float.max (float_of_int p *. 0.08) 40.0 in
        if Float.abs (float_of_int (m - p)) > tolerance then
          Alcotest.failf "%s %s: measured %d vs paper %d" micro label m p
      in
      close (fun q -> q.Paper_data.kvm_arm) "KVM ARM";
      close (fun q -> q.Paper_data.xen_arm) "Xen ARM";
      close (fun q -> q.Paper_data.kvm_x86) "KVM x86";
      close (fun q -> q.Paper_data.xen_x86) "Xen x86")
    rows

let test_experiment_table3_matches_paper () =
  let rows = Experiment.table3 () in
  List.iter2
    (fun (name, save, restore) (pname, psave, prestore) ->
      Alcotest.(check string) "class" pname name;
      Alcotest.(check int) (name ^ " save") psave save;
      Alcotest.(check int) (name ^ " restore") prestore restore)
    rows Paper_data.table3

let test_experiment_fig4_complete () =
  let rows = Experiment.fig4 () in
  Alcotest.(check int) "nine workloads" 9 (List.length rows);
  List.iter
    (fun { Experiment.workload; values } ->
      let expect_missing =
        workload = "Apache" (* Xen x86 column only *)
      in
      Alcotest.(check bool)
        (workload ^ " ARM columns present")
        true
        (values.Experiment.q_kvm_arm <> None
        && values.Experiment.q_xen_arm <> None);
      Alcotest.(check bool)
        (workload ^ " xen x86 presence")
        (not expect_missing)
        (values.Experiment.q_xen_x86 <> None))
    rows

let test_experiment_pinning_rows () =
  match Experiment.pinning ~iterations:2 () with
  | [ (_, sep_out, _); (_, shared_out, _) ] ->
      Alcotest.(check bool) "shared no better" true (shared_out >= sep_out)
  | _ -> Alcotest.fail "expected two pinning configurations"

let test_experiment_zerocopy_rows () =
  match Experiment.zerocopy () with
  | [ copying; zero ] ->
      Alcotest.(check bool) "zero copy faster" true
        (zero.Experiment.stream_gbps > copying.Experiment.stream_gbps)
  | _ -> Alcotest.fail "expected two configurations"

(* --- Report (rendering smoke tests) ------------------------------------------ *)

let render pp v =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  pp ppf v;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* tiny substring helper (no external deps) *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_report_table2_renders () =
  let out =
    render Armvirt_obs.Table.text
      (Report.table2 (Experiment.table2 ~iterations:2 ()))
  in
  Alcotest.(check bool) "mentions hypercall" true
    (String.length out > 200 && contains out "Hypercall")

(* --- umbrella ---------------------------------------------------------- *)

let test_umbrella_reexports () =
  (* The Armvirt umbrella exposes every layer; a quick end-to-end use
     through it alone. *)
  let hyp = Armvirt.Core.Platform.hypervisor Arm_m400 Xen in
  let rows = Armvirt.Workloads.Microbench.(to_rows (run ~iterations:1 hyp)) in
  Alcotest.(check int) "usable through the umbrella" 376
    (List.assoc "Hypercall" rows);
  Alcotest.(check int) "engine reachable" 5
    (Armvirt.Engine.Cycles.to_int
       (Armvirt.Engine.Cycles.of_int 5))

let () =
  Alcotest.run "core"
    [
      ( "platform",
        [
          Alcotest.test_case "isolated machines" `Quick
            test_platform_machines_isolated;
          Alcotest.test_case "hypervisor identities" `Quick
            test_platform_hypervisors;
          Alcotest.test_case "VHE rejects Xen" `Quick test_platform_vhe_rejects_xen;
          Alcotest.test_case "native" `Quick test_platform_native;
        ] );
      ( "paper_data",
        [
          Alcotest.test_case "table2 shape" `Quick test_paper_table2_shape;
          Alcotest.test_case "table3 sums" `Quick test_paper_table3_sums;
          Alcotest.test_case "fig4 missing apache" `Quick
            test_paper_fig4_xen_x86_apache_missing;
          Alcotest.test_case "table5 consistency" `Quick
            test_paper_table5_consistency;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "table2 close to paper" `Quick
            test_experiment_table2_close_to_paper;
          Alcotest.test_case "table3 matches paper" `Quick
            test_experiment_table3_matches_paper;
          Alcotest.test_case "fig4 complete" `Quick test_experiment_fig4_complete;
          Alcotest.test_case "pinning rows" `Quick test_experiment_pinning_rows;
          Alcotest.test_case "zerocopy rows" `Quick test_experiment_zerocopy_rows;
        ] );
      ( "report",
        [ Alcotest.test_case "table2 renders" `Quick test_report_table2_renders ]
      );
      ( "umbrella",
        [ Alcotest.test_case "re-exports usable" `Quick test_umbrella_reexports ]
      );
    ]
