(* The CLI rejects unknown ids and invalid arguments up front: for each
   case armvirt must exit with the expected code, print nothing on stdout
   (the error goes to stderr, never into the data), and do so within a
   time bound — it may not run anything first. Also pinned here: the
   bytes of every `armvirt timeline` and of the transition_timeline
   example, of the tables the CLI renders as markdown or CSV, and of
   `report` with its rows checked against `run`'s, the stderr warning
   for a trace ring that dropped events, exact exit accounting on both
   sides of that ring's cap, and tables that print "-", never "nan" or
   "inf", for an undefined value. The linter is its own executable:
   armvirt has no lint command, and armvirt-lint explains every rule.

   Runs ../bin/armvirt.exe, ../bin/armvirt_lint.exe and
   ../examples/transition_timeline.exe, which the test stanza depends
   on. *)

let armvirt = Filename.concat (Filename.concat ".." "bin") "armvirt.exe"

let armvirt_lint =
  Filename.concat (Filename.concat ".." "bin") "armvirt_lint.exe"

let transition_timeline =
  Filename.concat (Filename.concat ".." "examples") "transition_timeline.exe"

(* Exit code, stdout and stderr of one run, or a failure past the time
   bound. *)
let run ?(prog = armvirt) ?time_bound_s args = Child.run ?time_bound_s prog args
let contains = Child.contains

(* Unknown ids and values the option parser rejects are cmdliner usage
   errors: exit 124. *)
let usage_errors =
  [
    [ "run"; "bogus" ];
    (* Validated before table3 runs: nothing reaches stdout. *)
    [ "run"; "table3"; "bogus" ];
    [ "app"; "bogus" ];
    [ "timeline"; "--op"; "bogus" ];
    [ "trace"; "bogus" ];
    (* Counts must be positive: rejected before micro prints its header. *)
    [ "micro"; "--iterations"; "0" ];
    [ "micro"; "--iterations=-1" ];
    [ "rr"; "--transactions"; "0" ];
    [ "rr"; "--transactions=-5" ];
    [ "stat"; "micro"; "--iterations"; "0" ];
    [ "stat"; "micro"; "--top=-1" ];
    [ "explore"; "--space"; "bogus" ];
    (* The linter is armvirt-lint: armvirt has no lint command. *)
    [ "lint"; "--root"; "." ];
  ]

(* The same for armvirt-lint: a lint finding is accepted only in
   source, so there is no baseline file. *)
let lint_usage_errors =
  [ [ "--baseline"; "LINT_baseline.json" ]; [ "--update-baseline" ] ]

(* Values the parser accepts but the command rejects: exit 2. *)
let rejected =
  [
    [ "fleet"; "--vms"; "0" ];
    [ "fleet"; "--vms=-1" ];
    [ "fleet"; "--profile-mix"; "bogus" ];
    [ "migrate"; "--pages"; "0" ];
    [ "explore" ];
    [ "cluster"; "--offered-load"; "0" ];
    (* Loads the sweep cannot scale its arrival gaps by: non-finite, or
       outside the range `cluster --help` states. *)
    [ "cluster"; "--scenario"; "loadgen"; "--offered-load"; "nan" ];
    [ "cluster"; "--scenario"; "loadgen"; "--offered-load"; "inf" ];
    [ "cluster"; "--scenario"; "loadgen"; "--offered-load"; "1e300" ];
    [ "cluster"; "--scenario"; "loadgen"; "--offered-load"; "1e-300" ];
    [ "cluster"; "--scenario"; "loadgen"; "--offered-load"; "0.4,nan" ];
    (* The matrix, the default scenario, needs two VMs. *)
    [ "cluster"; "--vms"; "1" ];
    [ "stat"; "micro"; "rr" ];
    [ "stat"; "--diff"; "onlyone" ];
    [ "stat"; "--diff"; "/nonexistent/old.json"; "/nonexistent/new.json" ];
    (* Xen has no VHE model: every command that builds a hypervisor from
       -p and -H rejects the pair before it runs anything. *)
    [ "micro"; "-p"; "arm-vhe"; "-H"; "xen" ];
    [ "rr"; "-p"; "arm-vhe"; "-H"; "xen" ];
    [ "app"; "Apache"; "-p"; "arm-vhe"; "-H"; "xen" ];
    [ "stat"; "micro"; "-p"; "arm-vhe"; "-H"; "xen" ];
    [ "timeline"; "-p"; "arm-vhe"; "-H"; "xen" ];
    [ "trace"; "micro"; "-p"; "arm-vhe"; "-H"; "xen" ];
    [ "migrate"; "-p"; "arm-vhe"; "-H"; "xen" ];
  ]

(* M1 went with the label grammar it checked. *)
let lint_rejected = [ [ "--explain"; "M1" ] ]

(* An output that cannot be opened is a rejected argument: each command
   opens its outputs before it runs anything, and names the path. *)
let unwritable = "/nonexistent/out"

let unwritable_outputs =
  [
    (armvirt, [ "rr"; "--trace"; unwritable ]);
    (armvirt, [ "micro"; "--stat"; unwritable ]);
    (armvirt, [ "run"; "table2"; "--trace"; unwritable ]);
    (armvirt, [ "app"; "Apache"; "--stat"; unwritable ]);
    (armvirt, [ "report"; "--output"; unwritable ]);
    (armvirt, [ "explore"; "--space"; "lr_count=2|4"; "--out"; unwritable ]);
    (armvirt, [ "explore"; "--space"; "lr_count=2|4"; "--calibrate"; "--out";
                unwritable ]);
    (armvirt, [ "stat"; "micro"; "--out"; unwritable ]);
    (armvirt, [ "stat"; "--crosscheck"; "--out"; unwritable ]);
    (armvirt, [ "trace"; "rr"; "--out"; unwritable ]);
    (armvirt, [ "fleet"; "--vms"; "4"; "--out"; unwritable ]);
    (armvirt, [ "cluster"; "--out"; unwritable ]);
    (armvirt, [ "migrate"; "--out"; unwritable ]);
    (armvirt, [ "migrate"; "--format"; "csv"; "--out"; unwritable ]);
    (armvirt, [ "migrate"; "--trace"; unwritable ]);
    (armvirt_lint, [ "--root"; "."; "--out"; unwritable ]);
  ]

(* Sizes past the stated limits: rejected before anything is allocated,
   so each exits at once instead of running out of memory or running
   for minutes. *)
let too_large =
  [
    [ "fleet"; "--vms"; "4611686018427387903" ];
    [ "fleet"; "--vms"; "1000000000" ];
    [ "cluster"; "--vms"; "1000000000" ];
    [ "migrate"; "--pages"; "4611686018427387903" ];
    [ "explore"; "--space"; "vgic.save=1:1000000000:1" ];
  ]

(* Migration plans and explore points that used to hang, crash or print
   NaN rows: non-finite floats, sizes past the limits `migrate --help`
   states, and explore levels a configuration cannot take. *)
let bad_plans =
  [
    [ "migrate"; "--rate"; "inf" ];
    [ "migrate"; "--rate"; "nan" ];
    [ "migrate"; "--rate"; "1e9" ];
    [ "migrate"; "--bandwidth"; "1e-9" ];
    [ "migrate"; "--bandwidth"; "nan" ];
    [ "migrate"; "--downtime"; "nan" ];
    [ "migrate"; "--vcpus"; "1000000000" ];
    [ "migrate"; "--page-kb"; "4194304" ];
    [ "explore"; "--space"; "hyp=bogus" ];
    [ "explore"; "--space"; "fleet.vms=0|2" ];
    [ "explore"; "--space"; "mig.page_kb=0|4" ];
    [ "explore"; "--space"; "mig.max_rounds=0|3" ];
    [ "explore"; "--space"; "mig.bandwidth_gbps=nan" ];
    [ "explore"; "--space"; "mig.txn_rate_hz=1e9|2e4" ];
    (* Offered loads outside the range `explore --knobs` states: a load
       that overflows every arrival gap ran at no gap at all. *)
    [ "explore"; "--space"; "cluster.load=nan"; "--objective"; "cluster-p99" ];
    [ "explore"; "--space"; "cluster.load=1e-300"; "--objective";
      "cluster-p99" ];
    [ "explore"; "--space"; "mig.page_kb=0|4"; "--calibrate" ];
    (* Negative costs and non-positive clocks. *)
    [ "explore"; "--space"; "vgic.save=-5:5:5"; "--objective"; "hypercall" ];
    [ "explore"; "--space"; "mmio_decode=-1"; "--objective"; "ict" ];
    [ "explore"; "--space"; "vcpu_resume=-100"; "--objective"; "io-in" ];
    [ "explore"; "--space"; "freq_ghz=0"; "--objective"; "rr-us" ];
    [ "explore"; "--space"; "freq_ghz=-1"; "--objective"; "hypercall" ];
    (* Sizes past the limits `fleet --vms` and `cluster --vms` state, and
       costs that would overflow simulated time. *)
    [ "explore"; "--space"; "fleet.vms=65537"; "--objective"; "fleet-ready" ];
    [ "explore"; "--space"; "cluster.vms=257"; "--objective"; "cluster-p99" ];
    [ "explore"; "--space"; "trap_to_el2=4611686018427387903"; "--objective";
      "hypercall" ];
    [ "explore"; "--space"; "vgic.save=4611686018427387903"; "--objective";
      "hypercall" ];
    [ "explore"; "--space"; "vcpu_resume=4611686018427387903"; "--objective";
      "io-in" ];
    (* Egress queues below the matrix window: a dropped chunk is never
       acknowledged, and the run used to deadlock as an internal error. *)
    [ "explore"; "--space"; "net.queue=1"; "--sampler"; "grid"; "--objective";
      "cluster-pair-gbps" ];
    [ "explore"; "--space"; "net.queue=2"; "--sampler"; "grid"; "--objective";
      "cluster-xhost-gbps" ];
    [ "explore"; "--space"; "net.queue=3"; "--sampler"; "grid"; "--objective";
      "cluster-pair-gbps" ];
  ]

(* Values just inside a floor another scenario sets: they must run. *)
let accepted =
  [
    [ "cluster"; "--scenario"; "chain"; "--vms"; "1"; "--format"; "csv" ];
    [ "cluster"; "--scenario"; "loadgen"; "--vms"; "1"; "--format"; "csv" ];
    (* The ends of the --offered-load range. *)
    [ "cluster"; "--scenario"; "loadgen"; "--vms"; "1"; "--offered-load";
      "1e-6,1e6"; "--format"; "csv" ];
  ]

(* Cases show their command line; armvirt's show only its arguments. *)
let case_name prog args =
  String.concat " "
    (if prog = armvirt_lint then "armvirt-lint" :: args else args)

let accepted_case args =
  let name = String.concat " " args in
  Alcotest.test_case name `Quick (fun () ->
      let code, stdout, stderr = run args in
      Alcotest.(check int) (name ^ " exit code") 0 code;
      Alcotest.(check string) (name ^ " stderr") "" stderr;
      Alcotest.(check bool) (name ^ " prints rows") true
        (List.length (String.split_on_char '\n' (String.trim stdout)) > 1))

(* A rejection (exit 2) is one line on stderr, naming [names] if given;
   cmdliner's usage errors (exit 124) print the usage too. *)
let test_case ?time_bound_s ?(prog = armvirt) ?names ~code args =
  let name = case_name prog args in
  Alcotest.test_case name `Quick (fun () ->
      let got, stdout, stderr = run ?time_bound_s ~prog args in
      Alcotest.(check int) (name ^ " exit code") code got;
      Alcotest.(check string) (name ^ " prints nothing on stdout") "" stdout;
      if code = 2 then
        Alcotest.(check int)
          (name ^ " prints one line on stderr: " ^ stderr)
          1
          (List.length (String.split_on_char '\n' (String.trim stderr)));
      Option.iter
        (fun needle ->
          Alcotest.(check bool) (name ^ " names " ^ needle) true
            (contains stderr needle))
        names)

(* md5 of `timeline -p P -H H --op OP`'s stdout for each op, in
   [timeline_configs] order, and of the example's stdout: a change to
   how machines are instrumented or timelines printed must leave every
   byte as it is. *)
let timeline_configs =
  [ ("arm", "kvm"); ("arm", "xen"); ("arm-vhe", "kvm"); ("x86", "kvm");
    ("x86", "xen") ]

let timeline_pins =
  [
    ( "hypercall",
      [ "cb48a23c588fb6fef73543dba303a4a7"; "451cbf06531b69a85dadf62291b21a92";
        "208843ed66b8f6c17a025d73b3e1c9f9"; "7d5feee3a11fb8bea6a0e241890f4c68";
        "339dbfcc3596882a756eef3a44a6fbfa" ] );
    ( "ict",
      [ "12845c3c86a2a2692ffc028be046cd8b"; "de842ecf7da3b121095292d01c8c620d";
        "b02183c952d8e00840fe5eaebae15aba"; "9d67ce1bc2204b5a0edaae54013c6558";
        "ce3cf19ae37e7a0c5af095bc0b11f9f2" ] );
    ( "eoi",
      [ "1fb9bc8b6ced721820d84b31efc0eef7"; "3dc882d1ecb3ed29b9e3a43b814f06de";
        "fe746f3dd6f3b13f3863648c70cba0d3"; "8a18d904437c39b4308a4cd572cf1bee";
        "e815174a09685faf61882a1e4b969637" ] );
    ( "vmswitch",
      [ "84b194ab670f0f5bf1d63d3c7423b211"; "bf3d17b6a74a4ed335723f482127afe3";
        "2aaf76c83c30d733b211fc0679fc40d8"; "d126aab8344eb4ff3c7cde55a4898100";
        "56cc5536f57be6a521e4e44f53631441" ] );
    ( "vipi",
      [ "170b6d6706588f05223d4229259f3c0a"; "42522521b922b119116f87028bd7643a";
        "0c416dc5acd3a7c9f11f94fc07728a7c"; "d110d841df826aef2b93a567621727d5";
        "99198133c572d26661945a78164d0018" ] );
    ( "io-out",
      [ "cb33a4f1dda8d4566fd8f45f54e4490f"; "7cc6cd4ee8ff20f3de008d2f874033c2";
        "58e4a7b29a5f8b16ff4cf2ecc0c1792e"; "172093c21a46b062a6ae08dff7db2608";
        "20f1000ca540bb9360ab859a7e95dd51" ] );
    ( "io-in",
      [ "842a89b10433f41800291cec3b1cb129"; "08bbd2d4916bf9bf7812a028eed94465";
        "4819e13b6fc0a7cc118453b2a5d6a41b"; "b51b69962778353644eb6fad5aebf8b8";
        "1152b611cefb881f7da6e5db0edbceb2" ] );
  ]

let transition_timeline_md5 = "4fc262013b6b0b92312b82e0f4adc9e7"

let pin_case ?prog ~md5 args =
  let name = String.concat " " (Option.to_list prog @ args) in
  Alcotest.test_case name `Quick (fun () ->
      let code, stdout, stderr = run ?prog args in
      Alcotest.(check int) (name ^ " exit code") 0 code;
      Alcotest.(check string) (name ^ " stderr") "" stderr;
      Alcotest.(check string) (name ^ " stdout md5") md5
        (Digest.to_hex (Digest.string stdout)))

let pins =
  List.concat_map
    (fun (op, md5s) ->
      List.map2
        (fun (p, h) md5 -> pin_case ~md5 [ "timeline"; "-p"; p; "-H"; h; "--op"; op ])
        timeline_configs md5s)
    timeline_pins
  @ [ pin_case ~prog:transition_timeline ~md5:transition_timeline_md5 [] ]

(* md5 of the tables the CLI renders as markdown or CSV, and of the text
   tables of `migrate --rounds-detail` and `stat --crosscheck`: moving a
   table between renderers must leave every byte as it is. *)
let table_pins =
  [
    ( "e74800f765c39ed539a3b24a36eb0bb2",
      [ "explore"; "--space"; "vgic.save=2000:4375:625,lr_count=2|4";
        "--sampler"; "grid"; "--objective"; "hypercall"; "--objective";
        "lr-overhead"; "--format"; "md" ] );
    ( "62bf4fe4c6650de96bf4b6e33efe97a2",
      [ "explore"; "--space"; "vgic.save=2000:4375:625,trap_to_el2=60:100:20";
        "--sampler"; "oat"; "--objective"; "hypercall"; "--format"; "md" ] );
    ( "45212aaa3de172eae299dd594c640fb9",
      [ "migrate"; "--compare"; "--pages"; "1024"; "--format"; "md" ] );
    ( "4797db829aacc22d965e2cf2f7bc0245",
      [ "migrate"; "--compare"; "--pages"; "1024"; "--rounds-detail" ] );
    ( "669524b27af19d1b90f359316dc729f3",
      [ "fleet"; "--scenario"; "boot-storm"; "--vms"; "16"; "--format"; "md" ] );
    ( "3c63ad0e238024f7ac461c63e0f9855d",
      [ "fleet"; "--scenario"; "churn"; "--vms"; "16"; "--format"; "md" ] );
    ( "1527e4371acb7349dbcedf0c7b8ce60d",
      [ "fleet"; "--scenario"; "noisy-neighbor"; "--vms"; "16"; "--format"; "md" ] );
    ( "42aefc88c5ef36fa3b20abe511e5bb2d",
      [ "cluster"; "--scenario"; "chain"; "--format"; "md" ] );
    ( "c36c34df2603c107a43e36386d0ab040",
      [ "cluster"; "--scenario"; "matrix"; "--vms"; "4"; "--format"; "md" ] );
    ( "24b726aab3b8fd4718682a0d9d99339f",
      [ "cluster"; "--scenario"; "loadgen"; "--vms"; "4"; "--offered-load";
        "0.4,1.1"; "--format"; "md" ] );
    ( "c7f6f9d0bb999020aa60737a2c318bbf",
      [ "stat"; "micro"; "--iterations"; "4"; "--format"; "csv" ] );
    ( "c1edf74330dd6433d56a8551a5bf1683",
      [ "stat"; "--crosscheck"; "--iterations"; "4" ] );
  ]

(* Commands whose tables hold an undefined value: a migration whose idle
   baseline completes no request, and an explore point whose objective
   is that migration's degradation. Each cell prints "-". *)
let undefined_values =
  [
    [ "explore"; "--space"; "trap_to_el2=1000000000"; "--objective";
      "mig-p99-degradation"; "--format"; "csv" ];
    [ "migrate"; "-p"; "arm"; "-H"; "kvm"; "--rate"; "1" ];
    [ "migrate"; "-p"; "arm"; "-H"; "kvm"; "--rate"; "1"; "--format"; "csv" ];
    [ "migrate"; "-p"; "arm"; "-H"; "kvm"; "--rate"; "1"; "--format"; "md" ];
    [ "migrate"; "-p"; "arm"; "-H"; "kvm"; "--rate"; "1"; "--rounds-detail" ];
  ]

let undefined_case args =
  let name = String.concat " " args in
  Alcotest.test_case name `Quick (fun () ->
      let code, stdout, _ = run args in
      Alcotest.(check int) (name ^ " exit code") 0 code;
      List.iter
        (fun bad ->
          Alcotest.(check bool)
            (Printf.sprintf "%s prints no %S" name bad)
            false (contains stdout bad))
        [ "nan"; "inf" ])

(* armvirt-lint is the linter's one entry point: it explains every
   rule, naming its pass, and runs the whole-tree rule over a tree given
   by --root. *)
let lint_rules =
  List.map
    (fun r -> (r, "determinism"))
    [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7" ]
  @ [ ("U1", "units"); ("U2", "units"); ("D1", "capture"); ("S1", "exports") ]

let explain_case (rule, pass) =
  Alcotest.test_case ("explain " ^ rule) `Quick (fun () ->
      let code, stdout, stderr = run ~prog:armvirt_lint [ "--explain"; rule ] in
      Alcotest.(check int) "exit code" 0 code;
      Alcotest.(check string) "stderr" "" stderr;
      Alcotest.(check bool) "names the rule and its pass" true
        (String.starts_with ~prefix:(rule ^ " — ") stdout
        && contains stdout ("pass: " ^ pass)))

(* The help names the one way to accept a finding and no other. Words
   are compared with line breaks collapsed, as the help is wrapped. *)
let test_lint_help () =
  let code, stdout, stderr = run ~prog:armvirt_lint [ "--help=plain" ] in
  let text =
    String.map (function '\n' -> ' ' | c -> c) stdout
    |> String.split_on_char ' '
    |> List.filter (( <> ) "")
    |> String.concat " "
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "stderr" "" stderr;
  Alcotest.(check bool) "accepted by a marker in source" true
    (contains text "A finding is accepted only by a marker in its source file");
  Alcotest.(check bool) "names no baseline" false (contains text "baseline")

(* A two-file tree: one interface in lib/ and one caller in bin/. *)
let lint_fixture ~caller f =
  let root = Filename.temp_dir "armvirt_lint" "" in
  let write relpath contents =
    let path = Filename.concat root relpath in
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    path
  in
  List.iter
    (fun d -> Sys.mkdir (Filename.concat root d) 0o755)
    [ "lib"; "lib/demo"; "bin" ];
  let files =
    [
      write "lib/demo/counter.mli" "val incr : int -> int\n\nval dead : int -> int\n";
      write "bin/main.ml" caller;
    ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove files;
      List.iter
        (fun d -> Sys.rmdir (Filename.concat root d))
        [ "lib/demo"; "lib"; "bin" ];
      Sys.rmdir root)
    (fun () -> f root)

let test_lint_uncalled_export () =
  lint_fixture ~caller:"let () = ignore (Counter.incr 1)\n" (fun root ->
      let code, stdout, _ =
        run ~prog:armvirt_lint [ "--root"; root; "--rules"; "S1" ]
      in
      Alcotest.(check int) "a finding fails" 1 code;
      Alcotest.(check bool) "names the uncalled export" true
        (contains stdout "Counter.dead is exported but nothing outside");
      Alcotest.(check bool) "and only it" false
        (contains stdout "Counter.incr is exported"))

let test_lint_called_exports () =
  lint_fixture ~caller:"let () = ignore (Counter.incr (Counter.dead 1))\n"
    (fun root ->
      let code, _, _ = run ~prog:armvirt_lint [ "--root"; root ] in
      Alcotest.(check int) "every export called: clean" 0 code)

(* The simulator carries no linter: its help lists no lint command. *)
let test_no_lint_command () =
  let code, stdout, stderr = run [ "--help=plain" ] in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "stderr" "" stderr;
  Alcotest.(check bool) "lists commands" true (contains stdout "migrate");
  Alcotest.(check bool) "names no lint" false (contains stdout "lint")

(* Without --format, migrate's text report goes to --out's file like
   every other output, leaving only the status line on stdout. *)
let test_migrate_text_out () =
  let args = [ "migrate"; "--pages"; "1024"; "--rounds-detail" ] in
  let file = Filename.temp_file "armvirt_cli" ".txt" in
  let code, text, _ = run args in
  let code', stdout, stderr =
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        let r = run (args @ [ "--out"; file ]) in
        let written = In_channel.with_open_bin file In_channel.input_all in
        Alcotest.(check string) "the file holds the report" text written;
        r)
  in
  Alcotest.(check (pair int int)) "exit codes" (0, 0) (code, code');
  Alcotest.(check string) "stderr" "" stderr;
  Alcotest.(check string) "stdout" ("wrote " ^ file ^ "\n") stdout

let report_md5 = "86f309388dae054e75e70acd1cfabf1e"

(* `report` is the markdown of the tables `run` prints for the paper's
   artifacts: every data row of those text tables (between the second
   and third rule of each) is a markdown row of `report` with the same
   cells, and `report` has no other data row. Cells are compared with
   runs of spaces collapsed, as text padding is the only difference. *)
let test_report_matches_run () =
  let words s =
    String.concat " " (List.filter (( <> ) "") (String.split_on_char ' ' s))
  in
  let code, text, _ = run [ "run"; "table2"; "table3"; "table5"; "fig4"; "vhe" ] in
  let code', md, _ = run [ "report" ] in
  Alcotest.(check (pair int int)) "exit codes" (0, 0) (code, code');
  let is_rule l = l <> "" && String.for_all (( = ) '-') l in
  let rec text_rows rules acc = function
    | [] -> List.rev acc
    | l :: rest when is_rule l -> text_rows (rules + 1) acc rest
    | l :: rest ->
        text_rows rules (if rules mod 3 = 2 then words l :: acc else acc) rest
  in
  let rows = text_rows 0 [] (String.split_on_char '\n' text) in
  let md_lines =
    List.filter
      (fun l -> String.length l > 1 && l.[0] = '|')
      (String.split_on_char '\n' md)
  in
  let md_rows =
    List.map
      (fun l ->
        words
          (String.concat " "
             (String.split_on_char '|' (String.sub l 1 (String.length l - 2)))))
      md_lines
  in
  let separators =
    List.length (List.filter (fun l -> String.starts_with ~prefix:"|---" l) md_lines)
  in
  Alcotest.(check bool) "run prints rows" true (List.length rows > 30);
  List.iter
    (fun row ->
      Alcotest.(check bool) ("report has the row " ^ row) true
        (List.mem row md_rows))
    rows;
  Alcotest.(check int) "report has no other data row"
    (List.length md_lines - (2 * separators))
    (List.length rows)

(* At 1500 iterations a traced micro cell overflows its 2^18-event ring;
   at 1400 it fits. A loss prints exactly one stderr line naming the
   cell. The trace goes to a temporary file, named FILE in the case. *)
let drop_warning = function
  | true ->
      "armvirt: warning: cell micro#0.0 dropped 9357 trace events (ring \
       full)\n"
  | false -> ""

let drop_case (n, drops) =
  let args file =
    [ "micro"; "-p"; "arm"; "-H"; "kvm"; "--iterations"; n; "--trace"; file ]
  in
  let name = String.concat " " (args "FILE") in
  Alcotest.test_case name `Quick (fun () ->
      let file = Filename.temp_file "armvirt_cli" ".json" in
      let code, _, stderr =
        Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> run (args file))
      in
      Alcotest.(check int) (name ^ " exit code") 0 code;
      Alcotest.(check string) (name ^ " stderr") (drop_warning drops) stderr)

(* The 16-VM matrix on one host overflows KVM ARM's egress queues: one
   stderr line names the config and its drops, and stdout keeps the
   table's bytes. The stock 4-VM matrix drops nothing and says nothing. *)
let switch_drop_cases =
  [
    ( [ "--vms"; "16"; "--topology"; "single" ],
      "armvirt: warning: config KVM ARM dropped 13 frames (switch queue \
       full)\n",
      "be6d9ffaa10a47f7eda79a4a940bef33" );
    ([ "--vms"; "4" ], "", "bebe3111d064f58f085340ae4de6e9c8");
  ]

let switch_drop_case (extra, warning, md5) =
  let args =
    [ "cluster"; "--scenario"; "matrix" ] @ extra @ [ "--format"; "csv" ]
  in
  let name = String.concat " " args in
  Alcotest.test_case name `Quick (fun () ->
      let code, stdout, stderr = run args in
      Alcotest.(check int) (name ^ " exit code") 0 code;
      Alcotest.(check string) (name ^ " stderr") warning stderr;
      Alcotest.(check string) (name ^ " stdout md5") md5
        (Digest.to_hex (Digest.string stdout)))

(* Exit accounting reads the machine's counters, so it is exact on both
   sides of the ring's cap: N iterations of the Table I suite on KVM ARM
   are N hvc, 3N dabt and 2N irq exits, 7N entries and N hypercalls,
   with nothing on stderr, in the text report of `stat` and in the JSON
   of `--stat -`, whose schema and hypervisor are named. *)
let exact_cases =
  List.concat_map
    (fun n ->
      let iterations = string_of_int n in
      let row reason count = Printf.sprintf "\n  %-10s %8d " reason count in
      let exit reason count =
        Printf.sprintf "{\"reason\": \"%s\", \"count\": %d," reason count
      in
      [
        ( [ "stat"; "micro"; "-p"; "arm"; "-H"; "kvm"; "--iterations"; iterations ],
          [
            row "hvc" n;
            row "dabt" (3 * n);
            row "irq" (2 * n);
            Printf.sprintf ", entries %d\n" (7 * n);
            Printf.sprintf " hypercall=%d " n;
          ] );
        ( [
            "micro"; "-p"; "arm"; "-H"; "kvm"; "--iterations"; iterations;
            "--stat"; "-";
          ],
          [
            {|"schema": "armvirt.stat/v1"|};
            {|"hyp": "kvm_arm"|};
            exit "hvc" n;
            exit "dabt" (3 * n);
            exit "irq" (2 * n);
            Printf.sprintf "\"entries\": %d," (7 * n);
            Printf.sprintf "{\"op\": \"hypercall\", \"count\": %d}" n;
          ] );
      ])
    [ 8; 1500; 100_000 ]

let exact_case (args, needles) =
  let name = String.concat " " args in
  Alcotest.test_case name `Quick (fun () ->
      let code, stdout, stderr = run args in
      Alcotest.(check int) (name ^ " exit code") 0 code;
      Alcotest.(check string) (name ^ " stderr") "" stderr;
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "%s reports %S" name needle)
            true (contains stdout needle))
        needles)

(* Cells merge in input order, so `stat rr`'s JSON is the same bytes at
   any --jobs, with nothing on stderr. *)
let test_stat_jobs_invariant () =
  let stat jobs = run [ "stat"; "rr"; "--format"; "json"; "--jobs"; jobs ] in
  let code, one, err = stat "1" and code4, four, err4 = stat "4" in
  Alcotest.(check (list int)) "exit codes" [ 0; 0 ] [ code; code4 ];
  Alcotest.(check (list string)) "stderr" [ ""; "" ] [ err; err4 ];
  Alcotest.(check bool) "a report" true (contains one "armvirt.stat/v1");
  Alcotest.(check string) "--jobs 1 and 4" one four

let () =
  Alcotest.run "cli"
    [
      ( "usage error",
        List.map (test_case ~code:124) usage_errors
        @ List.map (test_case ~prog:armvirt_lint ~code:124) lint_usage_errors
      );
      ( "rejected argument",
        List.map (test_case ~code:2) rejected
        @ List.map (test_case ~prog:armvirt_lint ~code:2) lint_rejected
        @ List.map (test_case ~time_bound_s:1.0 ~code:2) too_large
        @ List.map (test_case ~time_bound_s:5.0 ~code:2) bad_plans );
      ( "unwritable output",
        List.map
          (fun (prog, args) ->
            test_case ~time_bound_s:5.0 ~prog ~names:unwritable ~code:2 args)
          unwritable_outputs );
      ("timeline pin", pins);
      ("table pin", List.map (fun (md5, args) -> pin_case ~md5 args) table_pins);
      ( "report",
        [
          pin_case ~md5:report_md5 [ "report" ];
          Alcotest.test_case "report rows are run's rows" `Quick
            test_report_matches_run;
        ] );
      ( "accepted argument", List.map accepted_case accepted );
      ("undefined value", List.map undefined_case undefined_values);
      ( "lint",
        List.map explain_case lint_rules
        @ [
            Alcotest.test_case "uncalled export fails" `Quick
              test_lint_uncalled_export;
            Alcotest.test_case "called exports pass" `Quick
              test_lint_called_exports;
            Alcotest.test_case "help names no baseline" `Quick test_lint_help;
            Alcotest.test_case "armvirt has no lint command" `Quick
              test_no_lint_command;
          ] );
      ( "output file",
        [
          Alcotest.test_case "migrate text report to --out" `Quick
            test_migrate_text_out;
        ] );
      ("drop warning", List.map drop_case [ ("1500", true); ("1400", false) ]);
      ("switch drop warning", List.map switch_drop_case switch_drop_cases);
      ( "exact counts",
        List.map exact_case exact_cases
        @ [
            Alcotest.test_case "stat rr json at --jobs 1 and 4" `Quick
              test_stat_jobs_invariant;
          ] );
    ]
