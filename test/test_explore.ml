(* Tests for Armvirt_explore: space parsing, sampler determinism (same
   points and byte-identical emitter output at every --jobs), Pareto
   correctness on hand-built sets, sensitivity ranking, and the
   calibration regression — a perturbed VGIC save cost must be
   recovered within 5% from the paper's hypercall target. *)

module Space = Armvirt_explore.Space
module Config = Armvirt_explore.Config
module Sampler = Armvirt_explore.Sampler
module Objective = Armvirt_explore.Objective
module Pareto = Armvirt_explore.Pareto
module Sensitivity = Armvirt_explore.Sensitivity
module Calibrate = Armvirt_explore.Calibrate
module Sweep = Armvirt_explore.Sweep
module Reg_class = Armvirt_arch.Reg_class
module Cost_model = Armvirt_arch.Cost_model

let point = Alcotest.testable
    (fun ppf p -> Format.pp_print_string ppf (Space.point_to_string p))
    ( = )

(* --- Space ----------------------------------------------------------- *)

let test_space_parse () =
  let space = Space.of_string "vgic.save=2000:4375:625,lr_count=2|4,hyp=kvm|xen" in
  Alcotest.(check int) "three axes" 3 (List.length space);
  (* 4375 is not on the 625 grid from 2000, so the last level is 3875. *)
  Alcotest.(check int) "grid size" (4 * 2 * 2) (Space.size space);
  let saves = Space.levels (List.nth space 0) in
  Alcotest.(check (list string)) "range levels stop at hi"
    [ "2000"; "2625"; "3250"; "3875" ]
    (List.map Space.value_to_string saves);
  (match Space.levels (List.nth space 2) with
  | [ Space.Choice "kvm"; Space.Choice "xen" ] -> ()
  | _ -> Alcotest.fail "choice levels");
  Alcotest.(check string) "round trip"
    "vgic.save=2000:4375:625,lr_count=2|4,hyp=kvm|xen"
    (Space.to_string (Space.of_string (Space.to_string space)))

let test_space_float_and_bool () =
  let space = Space.of_string "freq_ghz=2.0:2.4:0.2,vhe=true|false" in
  (match Space.levels (List.nth space 0) with
  | [ Space.Float a; Space.Float b; Space.Float c ] ->
      Alcotest.(check (float 1e-9)) "lo" 2.0 a;
      Alcotest.(check (float 1e-9)) "mid" 2.2 b;
      Alcotest.(check (float 1e-9)) "hi" 2.4 c
  | _ -> Alcotest.fail "float levels");
  match Space.levels (List.nth space 1) with
  | [ Space.Bool true; Space.Bool false ] -> ()
  | _ -> Alcotest.fail "bool levels"

let test_space_rejects_malformed () =
  let rejects s =
    match Space.of_string s with
    | _ -> Alcotest.failf "accepted %S" s
    | exception Invalid_argument _ -> ()
  in
  rejects "";
  rejects "noequals";
  rejects "a=1:10:0";
  rejects "a=10:1:2";
  rejects "a=1|2,a=3|4"

(* --- Sampler --------------------------------------------------------- *)

let small_space = Space.of_string "a=1:3:1,b=10|20"

let test_grid_order () =
  let pts = Sampler.points Sampler.Grid ~seed:0 small_space in
  Alcotest.(check int) "size" 6 (List.length pts);
  Alcotest.check point "first axis slowest"
    [ ("a", Space.Int 1); ("b", Space.Int 10) ]
    (List.hd pts);
  Alcotest.check point "b varies fastest"
    [ ("a", Space.Int 1); ("b", Space.Int 20) ]
    (List.nth pts 1)

let test_lhs_deterministic_and_stratified () =
  let space = Space.of_string "a=1:4:1,f=0.0:1.0:0.1" in
  let p1 = Sampler.points (Sampler.Lhs 4) ~seed:7 space in
  let p2 = Sampler.points (Sampler.Lhs 4) ~seed:7 space in
  Alcotest.(check (list point)) "same seed, same points" p1 p2;
  let p3 = Sampler.points (Sampler.Lhs 4) ~seed:8 space in
  Alcotest.(check bool) "different seed differs" true (p1 <> p3);
  (* 4 samples over a 4-level axis: Latin property = each level once. *)
  let a_values =
    List.sort compare (List.map (fun p -> List.assoc "a" p) p1)
  in
  Alcotest.(check (list point)) "each stratum used once"
    [ [ ("v", Space.Int 1) ]; [ ("v", Space.Int 2) ];
      [ ("v", Space.Int 3) ]; [ ("v", Space.Int 4) ] ]
    (List.map (fun v -> [ ("v", v) ]) a_values)

let test_oat_shape () =
  let pts = Sampler.points Sampler.Oat ~seed:0 small_space in
  (* base + 2 extra levels of a + 1 extra level of b *)
  Alcotest.(check int) "point count" 4 (List.length pts);
  Alcotest.check point "base first"
    [ ("a", Space.Int 1); ("b", Space.Int 10) ]
    (List.hd pts);
  List.iteri
    (fun i p ->
      if i > 0 then
        let diffs =
          List.filter (fun (k, v) -> List.assoc k (List.hd pts) <> v) p
        in
        Alcotest.(check int) "deviates in exactly one axis" 1
          (List.length diffs))
    pts

(* --- Config ---------------------------------------------------------- *)

let test_config_apply () =
  let c =
    Config.apply_point Config.default
      [ ("vgic.save", Space.Int 1234); ("lr_count", Space.Int 8);
        ("vhe", Space.Bool true); ("hyp", Space.Choice "xen") ]
  in
  Alcotest.(check int) "vgic.save"
    1234 (c.Config.arm.Cost_model.reg Reg_class.Vgic).Cost_model.save;
  Alcotest.(check int) "restore untouched"
    (Cost_model.arm_default.Cost_model.reg Reg_class.Vgic).Cost_model.restore
    (c.Config.arm.Cost_model.reg Reg_class.Vgic).Cost_model.restore;
  Alcotest.(check int) "lr_count" 8 c.Config.num_lrs;
  (* vhe=true + hyp=xen must not trip the Type 1 guard: the clamp lives
     in Config.hypervisor. *)
  let hyp = Config.hypervisor c in
  Alcotest.(check string) "xen built" "Xen ARM"
    hyp.Armvirt_hypervisor.Hypervisor.name

let test_config_rejects () =
  let rejects f =
    match f () with
    | _ -> Alcotest.fail "accepted"
    | exception Invalid_argument _ -> ()
  in
  rejects (fun () -> Config.apply Config.default "no-such-knob" (Space.Int 1));
  rejects (fun () -> Config.apply Config.default "vgic.save" (Space.Bool true));
  rejects (fun () -> Config.apply Config.default "hyp" (Space.Choice "vmware"));
  rejects (fun () -> Objective.find "no-such-objective")

(* --- Pareto ---------------------------------------------------------- *)

let test_pareto_hand_built () =
  let dirs = [ Objective.Min; Objective.Min ] in
  (* 0 dominates 1; 0 and 2 are incomparable; 3 duplicates 0 (keep
     first); 4 is dominated by everything. *)
  let rows =
    [ [| 1.; 5. |]; [| 2.; 6. |]; [| 5.; 1. |]; [| 1.; 5. |]; [| 6.; 7. |] ]
  in
  Alcotest.(check (list int)) "frontier" [ 0; 2 ]
    (Pareto.frontier ~dirs rows);
  (* Max direction flips dominance: (6,7) now dominates every row. *)
  Alcotest.(check (list int)) "max direction" [ 4 ]
    (Pareto.frontier ~dirs:[ Objective.Max; Objective.Max ] rows);
  (* Mixed directions: minimize first, maximize second. *)
  Alcotest.(check (list int)) "mixed" [ 0; 1; 4 ]
    (Pareto.frontier ~dirs:[ Objective.Min; Objective.Max ] rows)

let test_pareto_dominates () =
  let dirs = [ Objective.Min; Objective.Max ] in
  Alcotest.(check bool) "strictly better" true
    (Pareto.dominates ~dirs [| 1.; 9. |] [| 2.; 3. |]);
  Alcotest.(check bool) "equal rows do not dominate" false
    (Pareto.dominates ~dirs [| 1.; 9. |] [| 1.; 9. |]);
  Alcotest.(check bool) "trade-off does not dominate" false
    (Pareto.dominates ~dirs [| 1.; 2. |] [| 2.; 3. |])

let test_pareto_undefined () =
  (* NaN compares false both ways, so without the rule the NaN row would
     be non-dominated; an infinite row would dominate every finite one. *)
  let dirs = [ Objective.Min; Objective.Min ] in
  let rows =
    [ [| 2.; 2. |]; [| Float.nan; 0. |]; [| 3.; 1. |]; [| Float.neg_infinity; 1. |] ]
  in
  Alcotest.(check (list int)) "only the defined, non-dominated rows" [ 0; 2 ]
    (Pareto.frontier ~dirs rows);
  Alcotest.(check (list int)) "a lone undefined row leaves it empty" []
    (Pareto.frontier ~dirs:[ Objective.Max ] [ [| Float.infinity |] ])

let test_pareto_rejects () =
  (match Pareto.frontier ~dirs:[] [ [||] ] with
  | _ -> Alcotest.fail "empty dirs accepted"
  | exception Invalid_argument _ -> ());
  match Pareto.frontier ~dirs:[ Objective.Min ] [ [| 1.; 2. |] ] with
  | _ -> Alcotest.fail "arity mismatch accepted"
  | exception Invalid_argument _ -> ()

(* --- Sensitivity ----------------------------------------------------- *)

let test_sensitivity_ranking () =
  let base = [ ("a", Space.Int 0); ("b", Space.Int 0); ("c", Space.Int 0) ] in
  let dev axis v =
    List.map (fun (k, v0) -> if k = axis then (k, Space.Int v) else (k, v0)) base
  in
  let points = [ base; dev "a" 1; dev "a" 2; dev "b" 1; dev "c" 1 ] in
  let values = [ 100.; 150.; 50.; 400.; 90. ] in
  let rankings = Sensitivity.rank ~points ~values in
  Alcotest.(check (list string)) "span order" [ "b"; "a"; "c" ]
    (List.map (fun r -> r.Sensitivity.axis) rankings);
  let b = List.hd rankings in
  Alcotest.(check (float 1e-9)) "b span" 300. b.Sensitivity.span;
  Alcotest.(check (float 1e-9)) "b span pct" 300. b.Sensitivity.span_pct;
  let a = List.nth rankings 1 in
  Alcotest.(check (float 1e-9)) "a lo" 50. a.Sensitivity.lo;
  Alcotest.(check (float 1e-9)) "a hi" 150. a.Sensitivity.hi

let test_sensitivity_rejects_multi_axis () =
  let base = [ ("a", Space.Int 0); ("b", Space.Int 0) ] in
  let bad = [ ("a", Space.Int 1); ("b", Space.Int 1) ] in
  match Sensitivity.rank ~points:[ base; bad ] ~values:[ 1.; 2. ] with
  | _ -> Alcotest.fail "accepted a two-axis deviation"
  | exception Invalid_argument _ -> ()

(* --- Sweep determinism ----------------------------------------------- *)

let sweep_at jobs =
  let space =
    Space.of_string "vgic.save=2000:4375:625,lr_count=2|4,hyp=kvm|xen"
  in
  Sweep.run ~jobs ~seed:42 ~base:Config.default ~sampler:(Sampler.Lhs 6)
    ~objectives:[ Objective.find "hypercall"; Objective.find "lr-overhead" ]
    space

let test_sweep_jobs_invariant () =
  let s1 = sweep_at 1 and s4 = sweep_at 4 in
  let csv = Format.asprintf "%a" Sweep.pp_csv
  and markdown = Format.asprintf "%a" Sweep.pp_markdown in
  Alcotest.(check (list point)) "identical point lists" s1.Sweep.points
    s4.Sweep.points;
  Alcotest.(check string) "byte-identical csv" (csv s1) (csv s4);
  Alcotest.(check string) "byte-identical markdown" (markdown s1)
    (markdown s4);
  Alcotest.(check bool) "csv has header + one row per point" true
    (List.length (String.split_on_char '\n' (String.trim (csv s1)))
    = 1 + List.length s1.Sweep.points)

let test_sweep_undefined_values () =
  (* A point whose objective is undefined prints "-" in both renderers
     and is flagged off the frontier. *)
  let s = sweep_at 1 in
  let values =
    List.mapi (fun i row -> if i = 0 then [| Float.nan; row.(1) |] else row)
      s.Sweep.values
  in
  let dirs = List.map (fun o -> o.Objective.direction) s.Sweep.objectives in
  let s = { s with Sweep.values; pareto = Pareto.frontier ~dirs values } in
  let csv = Format.asprintf "%a" Sweep.pp_csv s
  and markdown = Format.asprintf "%a" Sweep.pp_markdown s in
  let cells line = String.split_on_char ',' line in
  (match String.split_on_char '\n' csv with
  | _header :: first :: _ ->
      let row = cells first in
      let n = List.length row in
      Alcotest.(check (list string)) "undefined value and pareto flag"
        [ "-"; "0" ]
        [ List.nth row (n - 3); List.nth row (n - 1) ]
  | _ -> Alcotest.fail "no csv rows");
  let cells_of out =
    String.split_on_char '\n' out
    |> List.concat_map (String.split_on_char '|')
    |> List.concat_map cells |> List.map String.trim
  in
  List.iter
    (fun (name, out) ->
      Alcotest.(check bool) (name ^ " has no nan cell") false
        (List.mem "nan" (cells_of out)))
    [ ("csv", csv); ("markdown", markdown) ]

let test_sweep_oat_has_sensitivity () =
  let space = Space.of_string "vgic.save=3250|1000,stage2_toggle=50|200" in
  let s =
    Sweep.run ~jobs:2 ~base:Config.default ~sampler:Sampler.Oat
      ~objectives:[ Objective.find "hypercall" ] space
  in
  match s.Sweep.sensitivity with
  | None -> Alcotest.fail "oat sweep lost its sensitivity ranking"
  | Some rankings ->
      Alcotest.(check (list string)) "vgic dominates the hypercall"
        [ "vgic.save"; "stage2_toggle" ]
        (List.map (fun r -> r.Sensitivity.axis) rankings)

(* --- Objectives ------------------------------------------------------ *)

let test_hypercall_err_zero_at_stock () =
  let err = (Objective.find "hypercall-err").Objective.eval Config.default in
  Alcotest.(check bool)
    (Printf.sprintf "stock model matches Table II (err %.2f%%)" err)
    true (err < 1.0)

let test_paper_objectives_reject_native () =
  let native = Config.apply Config.default "hyp" (Space.Choice "native") in
  match (Objective.find "hypercall-err").Objective.eval native with
  | _ -> Alcotest.fail "native has no Table II column"
  | exception Invalid_argument _ -> ()

(* --- Calibration regression ------------------------------------------ *)

let test_calibration_recovers_vgic_save () =
  (* Perturb vgic.save to 2600 (20% low) and ask the search to recover
     it from the paper's 6,500-cycle hypercall target. The acceptance
     band is 5% of Table III's 3,250. *)
  let space = Space.of_string "vgic.save=2600:3900:50" in
  let r =
    Calibrate.search ~restarts:2 ~seed:42 ~jobs:2
      ~start:[ ("vgic.save", Space.Int 2600) ]
      ~base:Config.default
      ~objective:(Objective.find "hypercall-err")
      space
  in
  let recovered =
    match List.assoc "vgic.save" r.Calibrate.best with
    | Space.Int n -> float_of_int n
    | _ -> Alcotest.fail "non-int vgic.save"
  in
  Alcotest.(check bool)
    (Printf.sprintf "recovered %.0f within 5%% of 3250 (err %.3f%%)"
       recovered r.Calibrate.best_value)
    true
    (Float.abs (recovered -. 3250.) /. 3250. <= 0.05);
  Alcotest.(check bool) "memo: each point simulated at most once" true
    (r.Calibrate.evaluations <= Space.size space)

let () =
  Alcotest.run "explore"
    [
      ( "space",
        [
          Alcotest.test_case "parse" `Quick test_space_parse;
          Alcotest.test_case "float and bool" `Quick test_space_float_and_bool;
          Alcotest.test_case "rejects malformed" `Quick
            test_space_rejects_malformed;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "grid order" `Quick test_grid_order;
          Alcotest.test_case "lhs deterministic + stratified" `Quick
            test_lhs_deterministic_and_stratified;
          Alcotest.test_case "oat shape" `Quick test_oat_shape;
        ] );
      ( "config",
        [
          Alcotest.test_case "apply" `Quick test_config_apply;
          Alcotest.test_case "rejects" `Quick test_config_rejects;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "hand-built sets" `Quick test_pareto_hand_built;
          Alcotest.test_case "dominates" `Quick test_pareto_dominates;
          Alcotest.test_case "undefined objectives" `Quick
            test_pareto_undefined;
          Alcotest.test_case "rejects" `Quick test_pareto_rejects;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "ranking" `Quick test_sensitivity_ranking;
          Alcotest.test_case "rejects multi-axis" `Quick
            test_sensitivity_rejects_multi_axis;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "jobs-invariant" `Quick test_sweep_jobs_invariant;
          Alcotest.test_case "undefined values" `Quick
            test_sweep_undefined_values;
          Alcotest.test_case "oat sensitivity" `Quick
            test_sweep_oat_has_sensitivity;
        ] );
      ( "objective",
        [
          Alcotest.test_case "stock hypercall err ~0" `Quick
            test_hypercall_err_zero_at_stock;
          Alcotest.test_case "native rejected" `Quick
            test_paper_objectives_reject_native;
        ] );
      ( "calibrate",
        [
          Alcotest.test_case "recovers perturbed vgic.save" `Quick
            test_calibration_recovers_vgic_save;
        ] );
    ]
