(* Tests for Armvirt_lint: per-pass positive/negative/suppressed fixtures
   (determinism R1-R7, units U1/U2, markers M1, capture D1), the baseline
   ratchet, the JSON v2 report golden, CLI rule selection, and the
   meta-tests that the repo's own lib/, bin/ and bench/ trees are
   lint-clean and that the committed LINT_baseline.json verifies at HEAD. *)

module Rules = Armvirt_lint.Rules
module Engine = Armvirt_lint.Engine
module Report = Armvirt_lint.Report
module Driver = Armvirt_lint.Driver
module Baseline = Armvirt_lint.Baseline

let lint ?rules ~relpath src =
  Engine.lint_source ?rules ~clock:(fun () -> 0.) ~relpath src

let rule_ids (r : Engine.result) =
  List.map (fun (f : Engine.finding) -> Rules.to_string f.rule) r.findings

let check_rules name expected r =
  Alcotest.(check (list string)) name expected (rule_ids r)

(* --- R1: stdlib Random --------------------------------------------- *)

let test_r1_random () =
  check_rules "flagged" [ "R1" ]
    (lint ~relpath:"lib/workloads/x.ml" "let x = Random.int 7");
  check_rules "deep path flagged" [ "R1" ]
    (lint ~relpath:"lib/workloads/x.ml" "let s = Random.State.make [| 3 |]");
  check_rules "module alias flagged" [ "R1" ]
    (lint ~relpath:"lib/workloads/x.ml" "module R = Random");
  check_rules "allowlisted in rng.ml" []
    (lint ~relpath:"lib/engine/rng.ml" "let x = Random.int 7");
  check_rules "Engine.Rng is fine" []
    (lint ~relpath:"lib/workloads/x.ml" "let x r = Engine.Rng.int r 7")

(* --- R2: wall clock ------------------------------------------------- *)

let test_r2_wall_clock () =
  check_rules "gettimeofday flagged" [ "R2" ]
    (lint ~relpath:"lib/core/x.ml" "let now () = Unix.gettimeofday ()");
  check_rules "Sys.time flagged" [ "R2" ]
    (lint ~relpath:"lib/core/x.ml" "let t () = Sys.time ()");
  (* self_init is both entropy (R2) and stdlib Random (R1) *)
  check_rules "self_init double-flagged" [ "R1"; "R2" ]
    (lint ~relpath:"lib/core/x.ml" "let () = Random.self_init ()");
  check_rules "bench may use wall clock" []
    (lint ~relpath:"bench/main.ml" "let now () = Unix.gettimeofday ()")

(* --- R3: Hashtbl iteration order ------------------------------------ *)

let test_r3_hashtbl_order () =
  check_rules "bare iter flagged" [ "R3" ]
    (lint ~relpath:"lib/io/x.ml" "let dump t f = Hashtbl.iter f t");
  check_rules "fold into sort accepted" []
    (lint ~relpath:"lib/io/x.ml"
       "let keys t =\n\
       \  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort \
        Int.compare");
  check_rules "sort elsewhere in same definition accepted" []
    (lint ~relpath:"lib/io/x.ml"
       "let keys t =\n\
       \  let raw = Hashtbl.fold (fun k _ acc -> k :: acc) t [] in\n\
       \  List.sort_uniq Int.compare raw");
  let suppressed =
    lint ~relpath:"lib/io/x.ml"
      "let count t =\n\
       \  (* lint: sorted *)\n\
       \  Hashtbl.fold (fun _ _ acc -> acc + 1) t 0"
  in
  check_rules "audited site suppressed" [] suppressed;
  Alcotest.(check int) "counted as suppressed" 1 suppressed.Engine.suppressed

(* --- R4: Domain outside the runner ----------------------------------- *)

let test_r4_domain () =
  check_rules "spawn flagged" [ "R4" ]
    (lint ~relpath:"lib/explore/x.ml" "let d f = Domain.spawn f");
  check_rules "join flagged" [ "R4" ]
    (lint ~relpath:"lib/explore/x.ml" "let j d = Domain.join d");
  check_rules "runner.ml allowlisted" []
    (lint ~relpath:"lib/core/runner.ml" "let d f = Domain.spawn f");
  check_rules "DLS is fine" []
    (lint ~relpath:"lib/explore/x.ml"
       "let k = Domain.DLS.new_key (fun () -> 0)")

(* --- R5: polymorphic compare --------------------------------------- *)

let test_r5_poly_compare () =
  check_rules "bare compare flagged" [ "R5" ]
    (lint ~relpath:"lib/engine/x.ml" "let c (a : float) b = compare a b");
  check_rules "Stdlib.compare flagged" [ "R5" ]
    (lint ~relpath:"lib/stats/x.ml" "let s l = List.sort Stdlib.compare l");
  check_rules "float-literal equality flagged" [ "R5" ]
    (lint ~relpath:"lib/stats/x.ml" "let z x = x = 0.0");
  check_rules "lambda equality flagged" [ "R5" ]
    (lint ~relpath:"lib/engine/x.ml" "let bad f = f = fun x -> x");
  check_rules "Float.compare is fine" []
    (lint ~relpath:"lib/engine/x.ml" "let c a b = Float.compare a b");
  check_rules "out of scope dirs unflagged" []
    (lint ~relpath:"lib/mem/x.ml" "let z x = x = 0.0")

(* --- R6: top-level mutable state ------------------------------------ *)

let test_r6_top_level_state () =
  check_rules "top-level Hashtbl flagged" [ "R6" ]
    (lint ~relpath:"lib/gic/x.ml" "let cache = Hashtbl.create 16");
  check_rules "top-level ref flagged" [ "R6" ]
    (lint ~relpath:"lib/gic/x.ml" "let hits = ref 0");
  check_rules "constrained ref flagged" [ "R6" ]
    (lint ~relpath:"lib/gic/x.ml" "let h : int list ref = ref []");
  check_rules "function allocating per call is fine" []
    (lint ~relpath:"lib/gic/x.ml" "let create () = Hashtbl.create 16");
  check_rules "metrics registry allowlisted" []
    (lint ~relpath:"lib/obs/metrics.ml" "let reg = Hashtbl.create 16");
  check_rules "audited global suppressed" []
    (lint ~relpath:"lib/gic/x.ml"
       "(* lint: allow R6 process-wide hook slot *)\nlet hook = ref None")

(* --- R7: printing from lib/ ------------------------------------------ *)

let test_r7_printing () =
  check_rules "print_endline flagged" [ "R7" ]
    (lint ~relpath:"lib/core/x.ml" {|let f () = print_endline "hi"|});
  check_rules "Printf.printf flagged" [ "R7" ]
    (lint ~relpath:"lib/core/x.ml" {|let g n = Printf.printf "%d" n|});
  check_rules "fprintf on a caller formatter is fine" []
    (lint ~relpath:"lib/core/x.ml" {|let h ppf = Format.fprintf ppf "x"|});
  check_rules "bin/ may print" []
    (lint ~relpath:"bin/armvirt.ml" {|let f () = print_endline "hi"|})

(* --- U1: incompatible units ------------------------------------------ *)

let test_u1_incompatible_units () =
  check_rules "additive mix flagged" [ "U1" ]
    (lint ~relpath:"lib/net/x.ml"
       "let mix link_gbps cost_cycles = link_gbps + cost_cycles");
  check_rules "comparison mix flagged" [ "U1" ]
    (lint ~relpath:"lib/migrate/x.ml" "let f a_us b_cycles = a_us < b_cycles");
  check_rules "binding mix flagged" [ "U1" ]
    (lint ~relpath:"lib/migrate/x.ml"
       "let f x_us = let y_cycles = x_us in y_cycles");
  check_rules "record field mix flagged" [ "U1" ]
    (lint ~relpath:"lib/net/x.ml"
       "let f wire_gbps = { Profile.budget_cycles = wire_gbps }");
  check_rules "labelled argument mix flagged" [ "U1" ]
    (lint ~relpath:"lib/net/x.ml" "let f g len_kb = g ~bytes:len_kb");
  check_rules "converter payload mix flagged" [ "U1" ]
    (lint ~relpath:"lib/migrate/x.ml" "let f x_bytes = Cycles.of_us x_bytes");
  check_rules "field access carries its unit" [ "U1" ]
    (lint ~relpath:"lib/net/x.ml"
       "let f t budget_cycles = t.Plan.bandwidth_gbps + budget_cycles");
  check_rules "same unit is fine" []
    (lint ~relpath:"lib/net/x.ml" "let f a_us b_us = a_us +. b_us");
  check_rules "converter used correctly is fine" []
    (lint ~relpath:"lib/migrate/x.ml"
       "let f x_us = let y_cycles = Cycles.of_us x_us in y_cycles");
  check_rules "named gbps converter is fine" []
    (lint ~relpath:"lib/net/x.ml"
       "let f link_gbps =\n\
       \  let wire_cycles = cycles_of_gbps link_gbps in\n\
       \  wire_cycles");
  check_rules "rates stay untracked" []
    (lint ~relpath:"lib/net/x.ml"
       "let f total_cycles cycles_per_byte = total_cycles + cycles_per_byte");
  check_rules "multiplication changes dimension, untracked" []
    (lint ~relpath:"lib/net/x.ml"
       "let f n_bytes rate_gbps = let x = n_bytes * 8 in x + (n_bytes * 2)");
  check_rules "out of lib/ unflagged" []
    (lint ~relpath:"bin/x.ml" "let mix a_gbps b_cycles = a_gbps + b_cycles")

let test_u1_suppressed () =
  let r =
    lint ~relpath:"lib/net/x.ml"
      "let f a_us b_cycles =\n\
       \  (* lint: unit us checked reinterpretation *)\n\
       \  a_us + b_cycles"
  in
  check_rules "audited unit site suppressed" [] r;
  Alcotest.(check int) "counted as suppressed" 1 r.Engine.suppressed

(* --- U2: unit-less literals ------------------------------------------ *)

let test_u2_literals () =
  check_rules "literal added to us flagged" [ "U2" ]
    (lint ~relpath:"lib/migrate/x.ml" "let f t_us = t_us +. 3.0");
  check_rules "literal compared with gbps flagged" [ "U2" ]
    (lint ~relpath:"lib/net/x.ml" "let f rate_gbps = rate_gbps < 9.0");
  check_rules "zero is unit-polymorphic" []
    (lint ~relpath:"lib/net/x.ml" "let f rate_gbps = rate_gbps > 0.0");
  check_rules "one is the counting idiom" []
    (lint ~relpath:"lib/mem/x.ml" "let f n_bytes = n_bytes + 1");
  check_rules "minus one exempt" []
    (lint ~relpath:"lib/mem/x.ml"
       "let f n_bytes page_bytes = (n_bytes + page_bytes - 1) / page_bytes");
  check_rules "literal at unit-suffixed declaration is the entry point" []
    (lint ~relpath:"lib/migrate/x.ml" "let timeout_us = 250.0");
  check_rules "literal through a named converter is sanctioned" []
    (lint ~relpath:"lib/migrate/x.ml" "let f hz = Cycles.of_us ~hz 2.0")

(* --- M1: marker grammar ---------------------------------------------- *)

let test_m1_literal_labels () =
  check_rules "well-formed exit passes" []
    (lint ~relpath:"lib/hypervisor/x.ml"
       {|let f m = Machine.count m "kvm_arm.exit/hvc/p0"|});
  check_rules "entry with domain passes" []
    (lint ~relpath:"lib/hypervisor/x.ml"
       {|let f m = Machine.count m "xen_arm.entry/p2/d7"|});
  check_rules "op counter passes" []
    (lint ~relpath:"lib/hypervisor/x.ml"
       {|let f m = Machine.count m "kvm_arm.hypercall"|});
  check_rules "vswitch format literal passes via hole neutralization" []
    (lint ~relpath:"lib/vswitch/x.ml"
       {|let f c = c "vswitch.%s/p%d/rx" && c "wire.%s-u%d/tx"|});
  check_rules "unknown exit reason flagged" [ "M1" ]
    (lint ~relpath:"lib/hypervisor/x.ml"
       {|let f m = Machine.count m "kvm_arm.exit/hvcc/p0"|});
  check_rules "missing pcpu parses as op and is flagged" [ "M1" ]
    (lint ~relpath:"lib/hypervisor/x.ml"
       {|let f m = Machine.count m "kvm_arm.exit/hvc"|});
  check_rules "dotless label flagged" [ "M1" ]
    (lint ~relpath:"lib/hypervisor/x.ml"
       {|let f m = Machine.count m "hypercall"|});
  check_rules "malformed vswitch counter flagged" [ "M1" ]
    (lint ~relpath:"lib/vswitch/x.ml"
       {|let f m = Machine.count m "vswitch.s0/rx"|});
  check_rules "opaque computed label flagged" [ "M1" ]
    (lint ~relpath:"lib/hypervisor/x.ml"
       {|let f m h = Machine.count m (h ^ ".exit/hvc/p0")|});
  check_rules "marker sites outside lib/ unscanned" []
    (lint ~relpath:"bench/x.ml"
       {|let f m = Machine.count m "kvm_arm.exit/hvcc/p0"|})

let test_m1_builders () =
  check_rules "builder application trusted" []
    (lint ~relpath:"lib/hypervisor/x.ml"
       {|let f m r = Machine.count m (Marker.exit ~hyp:"kvm_arm" ~reason:r ~pcpu:0)|});
  check_rules "accounting alias trusted" []
    (lint ~relpath:"lib/fleet/x.ml"
       {|let f m p = Machine.count m (Accounting.entry_label ~hyp:"xen_arm" ~pcpu:p ())|});
  check_rules "builder literal reason cross-checked" [ "M1" ]
    (lint ~relpath:"lib/fleet/x.ml"
       {|let f m = Machine.count m (Marker.exit_name ~hyp:"kvm_arm" ~reason:"hvcc" ~pcpu:0)|});
  check_rules "builder literal hyp cross-checked" [ "M1" ]
    (lint ~relpath:"lib/fleet/x.ml"
       {|let f m = Machine.count m (Marker.entry ~hyp:"Bad.Hyp" ~pcpu:0 ())|})

(* --- D1: cross-domain capture ---------------------------------------- *)

let test_d1_capture () =
  check_rules "captured toplevel ref flagged" [ "R6"; "D1" ]
    (lint ~relpath:"lib/explore/x.ml"
       "let tally = ref 0\nlet fan xs = Runner.map (fun x -> tally := x) xs");
  check_rules "audited R6 global still races under fan-out" [ "D1" ]
    (lint ~relpath:"lib/explore/x.ml"
       "(* lint: allow R6 hook slot *)\n\
        let hook = ref None\n\
        let fan xs = Runner.map (fun x -> hook := Some x; x) xs");
  check_rules "unreferenced toplevel state is R6's business only" [ "R6" ]
    (lint ~relpath:"lib/explore/x.ml"
       "let tally = ref 0\nlet fan xs = Runner.map (fun x -> x + 1) xs");
  check_rules "closure-local ref is fine" []
    (lint ~relpath:"lib/explore/x.ml"
       "let fan xs = Runner.map (fun x -> let acc = ref x in !acc) xs");
  check_rules "registry modules exempt by scoping" []
    (lint ~rules:[ Rules.D1 ] ~relpath:"lib/obs/metrics.ml"
       "let reg = Hashtbl.create 16\n\
        let fan xs = Runner.map (fun x -> Hashtbl.hash reg + x) xs")

(* --- suppression and selection mechanics ----------------------------- *)

let test_file_wide_disable () =
  check_rules "file-wide disable" []
    (lint ~relpath:"lib/core/x.ml"
       "(* lint: disable R7 *)\nlet f () = print_endline \"hi\"");
  check_rules "disable only silences listed rules" [ "R1" ]
    (lint ~relpath:"lib/core/x.ml"
       "(* lint: disable R7 *)\nlet f () = Random.bits ()")

let test_rule_selection () =
  let src = "let f () = print_endline (string_of_int (Random.bits ()))" in
  (* same line: ordered by column, print_endline first *)
  check_rules "all rules" [ "R7"; "R1" ] (lint ~relpath:"lib/core/x.ml" src);
  check_rules "only R1"
    [ "R1" ]
    (lint ~rules:[ Rules.R1 ] ~relpath:"lib/core/x.ml" src);
  check_rules "only R7"
    [ "R7" ]
    (lint ~rules:[ Rules.R7 ] ~relpath:"lib/core/x.ml" src)

let test_findings_sorted () =
  let r =
    lint ~relpath:"lib/core/x.ml"
      "let a () = print_endline \"x\"\n\
       let b = ref 0\n\
       let c () = Random.bits ()"
  in
  check_rules "sorted by line" [ "R7"; "R6"; "R1" ] r

let test_parse_error () =
  Alcotest.check_raises "syntax error raises"
    (Engine.Parse_error "lib/core/x.ml: Syntaxerr.Error(_)")
    (fun () ->
      try ignore (lint ~relpath:"lib/core/x.ml" "let let let")
      with Engine.Parse_error _ ->
        raise (Engine.Parse_error "lib/core/x.ml: Syntaxerr.Error(_)"))

(* --- pass registration ------------------------------------------------ *)

let test_pass_registration () =
  Alcotest.(check (list string))
    "registration order" [ "determinism"; "units"; "markers"; "capture" ]
    (List.map (fun (p : Armvirt_lint.Pass.t) -> p.Armvirt_lint.Pass.name)
       Engine.passes);
  Alcotest.(check string) "U1 owned by units" "units" (Engine.pass_of_rule Rules.U1);
  Alcotest.(check string) "M1 owned by markers" "markers"
    (Engine.pass_of_rule Rules.M1);
  Alcotest.(check string) "D1 owned by capture" "capture"
    (Engine.pass_of_rule Rules.D1);
  Alcotest.(check string) "R3 owned by determinism" "determinism"
    (Engine.pass_of_rule Rules.R3);
  (* every rule has a long-form rationale for --explain *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "explain %s nonempty" (Rules.to_string r))
        true
        (String.length (Rules.explain r) > 80))
    Rules.all

let test_per_pass_timing () =
  let r =
    lint ~relpath:"lib/hypervisor/x.ml"
      {|let f m = Machine.count m "kvm_arm.hypercall"|}
  in
  let names = List.map fst r.Engine.timings in
  Alcotest.(check (list string))
    "every relevant pass timed" [ "determinism"; "units"; "markers"; "capture" ]
    names;
  (* scoping skips passes wholesale: only determinism applies in bench/ *)
  let r = lint ~relpath:"bench/x.ml" "let f x = x" in
  Alcotest.(check (list string))
    "bench scoping skips unit/marker/capture passes" [ "determinism" ]
    (List.map fst r.Engine.timings)

(* --- the baseline ratchet --------------------------------------------- *)

let finding rule file line =
  { Engine.rule; file; line; col = 0; message = "m" }

let entry = Alcotest.testable
    (fun ppf (e : Baseline.entry) ->
      Format.fprintf ppf "%s/%s=%d" e.Baseline.file
        (Rules.to_string e.Baseline.rule)
        e.Baseline.count)
    ( = )

let test_baseline_ratchet () =
  let today =
    [ finding Rules.R6 "lib/a.ml" 3; finding Rules.R6 "lib/a.ml" 9 ]
  in
  let base = Baseline.of_findings today in
  Alcotest.(check (list entry))
    "counts collapse per (file, rule)"
    [ { Baseline.file = "lib/a.ml"; rule = Rules.R6; count = 2 } ]
    base;
  let v = Baseline.check base today in
  Alcotest.(check int) "same tree: nothing fresh" 0 (List.length v.Baseline.fresh);
  Alcotest.(check int) "same tree: all grandfathered" 2
    (List.length v.Baseline.grandfathered);
  Alcotest.(check (list entry)) "same tree: no residue" [] v.Baseline.stale;
  (* growth: the finding beyond the quota is fresh *)
  let v = Baseline.check base (finding Rules.R6 "lib/a.ml" 20 :: today) in
  Alcotest.(check int) "growth is fresh" 1 (List.length v.Baseline.fresh);
  Alcotest.(check int) "quota still grandfathers" 2
    (List.length v.Baseline.grandfathered);
  (* a different rule in the same file has no quota *)
  let v = Baseline.check base (finding Rules.R1 "lib/a.ml" 3 :: today) in
  Alcotest.(check int) "other rule is fresh" 1 (List.length v.Baseline.fresh);
  (* shrinkage: unconsumed quota is stale until committed *)
  let v = Baseline.check base [ finding Rules.R6 "lib/a.ml" 3 ] in
  Alcotest.(check (list entry))
    "residue reported"
    [ { Baseline.file = "lib/a.ml"; rule = Rules.R6; count = 1 } ]
    v.Baseline.stale

let test_baseline_round_trip () =
  let base =
    Baseline.of_findings
      [
        finding Rules.R6 "lib/a.ml" 3;
        finding Rules.U1 "lib/b.ml" 1;
        finding Rules.R6 "lib/a.ml" 9;
      ]
  in
  (match Baseline.parse (Baseline.render base) with
  | Ok parsed -> Alcotest.(check (list entry)) "round-trips" base parsed
  | Error e -> Alcotest.fail ("parse failed: " ^ e));
  (match Baseline.parse {|{ "version": 9, "entries": [] }|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future version accepted");
  (match Baseline.parse {|{ "version": 1, "entries": [ { "file": "a", "rule": "ZZ", "count": 1 } ] }|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown rule accepted");
  match Baseline.parse (Baseline.render Baseline.empty) with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty baseline grew entries"
  | Error e -> Alcotest.fail ("empty baseline unparseable: " ^ e)

(* Every error the baseline reader reported before it became a walk over
   the shared JSON tree is still reported, with the same message. *)
let test_baseline_parse_errors () =
  let entry_doc fields =
    Printf.sprintf {|{ "version": 1, "entries": [ { %s } ] }|} fields
  in
  List.iter
    (fun (doc, expected) ->
      match Baseline.parse doc with
      | Ok _ -> Alcotest.failf "accepted %s" doc
      | Error msg -> Alcotest.(check string) doc expected msg)
    [
      ({|{ "version": 9, "entries": [] }|}, "unsupported baseline version 9");
      ( entry_doc {|"file": "a", "rule": "R6", "count": 1, "line": 3|},
        "unknown entry key line" );
      ( entry_doc {|"file": "a", "rule": "ZZ", "count": 1|},
        "unknown rule ZZ" );
      ( entry_doc {|"file": "a", "rule": "R6", "count": -1|},
        "negative count" );
      ( entry_doc {|"file": "a", "rule": "R6"|},
        "entry missing file/rule/count" );
    ]

(* --- report formats --------------------------------------------------- *)

let fixture_report () =
  let src =
    "let seed () = Random.int 7\nlet now () = Unix.gettimeofday ()\n"
  in
  let r = lint ~relpath:"lib/demo/fixture.ml" src in
  let passes =
    [
      {
        Report.pass = "determinism";
        pass_rules = Rules.[ R1; R2; R3; R4; R5; R6; R7 ];
        duration_ms = 0.;
        pass_findings = 2;
      };
    ]
  in
  Report.of_findings ~passes ~root:"." ~files_scanned:1
    ~suppressed:r.Engine.suppressed r.Engine.findings

let golden_json =
  {|{
  "version": 2,
  "root": ".",
  "files_scanned": 1,
  "suppressed": 0,
  "passes": [
    { "name": "determinism", "rules": ["R1", "R2", "R3", "R4", "R5", "R6", "R7"], "duration_ms": 0.000, "findings": 2 }
  ],
  "baseline": { "fresh": 2, "grandfathered": 0, "stale": 0 },
  "findings": [
    { "file": "lib/demo/fixture.ml", "line": 1, "col": 14, "rule": "R1", "pass": "determinism", "severity": "error", "status": "fresh", "message": "use of Random.int: all randomness must flow through seeded Engine.Rng", "hint": "draw through a seeded Engine.Rng stream (Rng.split per consumer)" },
    { "file": "lib/demo/fixture.ml", "line": 2, "col": 13, "rule": "R2", "pass": "determinism", "severity": "error", "status": "fresh", "message": "wall-clock/process-entropy call Unix.gettimeofday breaks run-to-run reproducibility", "hint": "simulated time comes from Engine.Cycles/Sim.now; host wall-clock belongs in bench/ only" }
  ]
}
|}

let test_json_golden () =
  Alcotest.(check string)
    "json golden" golden_json
    (Report.render Report.Json (fixture_report ()))

let test_csv_and_text () =
  let report = fixture_report () in
  let csv = Report.render Report.Csv report in
  let header = "file,line,col,rule,severity,status,message\n" in
  Alcotest.(check string)
    "csv header" header
    (String.sub csv 0 (String.length header));
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check int) "csv rows" 4 (List.length lines);
  (* header + 2 findings + trailing newline *)
  let has s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "csv rows tagged fresh" true (has csv ",fresh,");
  let text = Report.render Report.Text report in
  Alcotest.(check bool)
    "text mentions both rules and the pass table" true
    (has text "[R1]" && has text "[R2]" && has text "2 findings"
    && has text "pass determinism")

(* RFC 4180: a CR inside a field must be quoted like an LF, or the row
   splits on readers that treat "\r\n" as the record separator. *)
let test_csv_crlf_field () =
  let f line message = { (finding Rules.R6 "lib/a.ml" line) with message } in
  let csv =
    Report.render Report.Csv
      (Report.of_findings ~root:"." ~files_scanned:1 ~suppressed:0
         [ f 3 "first\r\nsecond"; f 4 "bare\rCR" ])
  in
  Alcotest.(check string)
    "one quoted field each"
    "file,line,col,rule,severity,status,message\n\
     lib/a.ml,3,0,R6,warning,fresh,\"first\r\nsecond\"\n\
     lib/a.ml,4,0,R6,warning,fresh,\"bare\rCR\"\n"
    csv

let test_grandfathered_render () =
  let f = finding Rules.R6 "lib/a.ml" 3 in
  let report =
    {
      (Report.of_findings ~root:"." ~files_scanned:1 ~suppressed:0 [ f ]) with
      Report.findings = [ (f, Report.Grandfathered) ];
      stale = [ { Baseline.file = "lib/b.ml"; rule = Rules.U1; count = 2 } ];
    }
  in
  Alcotest.(check int) "nothing fresh" 0 (List.length (Report.fresh report));
  Alcotest.(check bool) "stale residue blocks a clean exit" false
    (Report.clean report);
  let has s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  let text = Report.render Report.Text report in
  Alcotest.(check bool) "grandfathered tag rendered" true
    (has text "grandfathered[R6]");
  Alcotest.(check bool) "stale residue rendered" true (has text "stale[U1]");
  let json = Report.render Report.Json report in
  Alcotest.(check bool) "json counts the verdict" true
    (has json {|"baseline": { "fresh": 0, "grandfathered": 1, "stale": 1 }|})

let test_render_deterministic () =
  let a = Report.render Report.Json (fixture_report ()) in
  let b = Report.render Report.Json (fixture_report ()) in
  Alcotest.(check string) "byte-identical" a b

(* --- the meta-tests: this repo is lint-clean at HEAD ------------------ *)

let test_repo_is_lint_clean () =
  let root = Driver.find_root () in
  let files = Driver.scan_files ~root in
  Alcotest.(check bool)
    (Printf.sprintf "scans a real tree (%d files)" (List.length files))
    true
    (List.length files > 100);
  let report = Driver.lint_tree ~root () in
  List.iter
    (fun (f : Engine.finding) ->
      Printf.eprintf "unexpected finding: %s:%d [%s] %s\n%!" f.file f.line
        (Rules.to_string f.rule) f.message)
    (Report.fresh report);
  Alcotest.(check int) "zero unsuppressed findings" 0
    (List.length (Report.fresh report));
  Alcotest.(check bool)
    "audited sites are marked, not silently dropped" true
    (report.Report.suppressed > 0)

let test_committed_baseline_is_clean () =
  (* The acceptance criterion: LINT_baseline.json self-checks at HEAD —
     it parses, and the tree produces neither fresh findings beyond it
     nor stale residue under it. *)
  let root = Driver.find_root () in
  match Baseline.load (Filename.concat root "LINT_baseline.json") with
  | Error e -> Alcotest.fail ("committed baseline unreadable: " ^ e)
  | Ok baseline ->
      let report = Driver.lint_tree ~baseline ~root () in
      List.iter
        (fun (f : Engine.finding) ->
          Printf.eprintf "fresh beyond baseline: %s:%d [%s] %s\n%!" f.file
            f.line (Rules.to_string f.rule) f.message)
        (Report.fresh report);
      List.iter
        (fun (e : Baseline.entry) ->
          Printf.eprintf "stale baseline residue: %s [%s] x%d\n%!"
            e.Baseline.file
            (Rules.to_string e.Baseline.rule)
            e.Baseline.count)
        report.Report.stale;
      Alcotest.(check bool) "baseline self-check clean" true
        (Report.clean report)

let test_repo_gate_catches_injection () =
  (* The invariant CI relies on: were a forbidden call, a mixed-unit
     expression, a malformed marker or a cross-domain capture introduced
     in a scanned module, the same gate that is clean today would fail. *)
  let root = Driver.find_root () in
  let clean = Driver.lint_tree ~root () in
  let seeded =
    lint ~relpath:"lib/hypervisor/kvm_arm.ml"
      "let jitter () = Random.int 100\n\
       let d f = Domain.spawn f\n\
       let mix link_gbps cost_cycles = link_gbps + cost_cycles\n\
       let mark m = Machine.count m \"kvm_arm.exit/hvcc/p0\"\n\
       let tally = ref 0\n\
       let fan xs = Runner.map (fun x -> tally := x) xs"
  in
  Alcotest.(check (list string))
    "injected violations caught across all four passes"
    [ "R1"; "R4"; "U1"; "M1"; "R6"; "D1" ]
    (rule_ids seeded);
  Alcotest.(check int) "today's tree stays the baseline" 0
    (List.length (Report.fresh clean))

let () =
  Alcotest.run "lint"
    [
      ( "determinism",
        [
          Alcotest.test_case "R1 random" `Quick test_r1_random;
          Alcotest.test_case "R2 wall clock" `Quick test_r2_wall_clock;
          Alcotest.test_case "R3 hashtbl order" `Quick test_r3_hashtbl_order;
          Alcotest.test_case "R4 domain" `Quick test_r4_domain;
          Alcotest.test_case "R5 poly compare" `Quick test_r5_poly_compare;
          Alcotest.test_case "R6 top-level state" `Quick
            test_r6_top_level_state;
          Alcotest.test_case "R7 printing" `Quick test_r7_printing;
        ] );
      ( "units",
        [
          Alcotest.test_case "U1 incompatible units" `Quick
            test_u1_incompatible_units;
          Alcotest.test_case "U1 suppressed" `Quick test_u1_suppressed;
          Alcotest.test_case "U2 literals" `Quick test_u2_literals;
        ] );
      ( "markers",
        [
          Alcotest.test_case "M1 literal labels" `Quick test_m1_literal_labels;
          Alcotest.test_case "M1 builders" `Quick test_m1_builders;
        ] );
      ( "capture",
        [ Alcotest.test_case "D1 capture" `Quick test_d1_capture ] );
      ( "mechanics",
        [
          Alcotest.test_case "file-wide disable" `Quick test_file_wide_disable;
          Alcotest.test_case "rule selection" `Quick test_rule_selection;
          Alcotest.test_case "findings sorted" `Quick test_findings_sorted;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "pass registration" `Quick test_pass_registration;
          Alcotest.test_case "per-pass timing" `Quick test_per_pass_timing;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "ratchet semantics" `Quick test_baseline_ratchet;
          Alcotest.test_case "render/parse round trip" `Quick
            test_baseline_round_trip;
          Alcotest.test_case "parse errors" `Quick test_baseline_parse_errors;
        ] );
      ( "report",
        [
          Alcotest.test_case "json v2 golden" `Quick test_json_golden;
          Alcotest.test_case "csv and text" `Quick test_csv_and_text;
          Alcotest.test_case "csv CRLF field" `Quick test_csv_crlf_field;
          Alcotest.test_case "grandfathered and stale" `Quick
            test_grandfathered_render;
          Alcotest.test_case "render deterministic" `Quick
            test_render_deterministic;
        ] );
      ( "meta",
        [
          Alcotest.test_case "repo is lint-clean" `Quick
            test_repo_is_lint_clean;
          Alcotest.test_case "committed baseline self-checks" `Quick
            test_committed_baseline_is_clean;
          Alcotest.test_case "gate catches injected violations" `Quick
            test_repo_gate_catches_injection;
        ] );
    ]
