(* Rendering smoke tests: every registry entry runs its experiment and
   builds its tables without raising (a row of the wrong width raises
   here) and mentions the strings a reader would look for. *)

module Report = Armvirt_core.Report

let render (e : Report.entry) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Report.run ppf e;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let check_render name out needles =
  Alcotest.(check bool) (name ^ " non-trivial") true (String.length out > 80);
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %S" name needle)
        true (contains out needle))
    needles

(* The strings a reader would look for in each artifact, keyed by
   registry id. Every registry entry must have a row. *)
let needles =
  [
    ("table2", [ "Table II"; "Hypercall"; "6500/6500"; "x86 Xen" ]);
    ("table3", [ "VGIC Regs"; "3250"; "Register State" ]);
    ("table5", [ "Trans/s"; "VM recv to VM send"; "Xen" ]);
    ("fig4", [ "Figure 4"; "Kernbench"; "Apache"; "Dom0 kernel panic" ]);
    ("vhe", [ "KVM split-mode"; "Hypercall"; "speedup"; "improvement" ]);
    ("irqdist", [ "distributed"; "Apache"; "paper" ]);
    ("pinning", [ "separate PCPUs"; "sharing" ]);
    ("zerocopy", [ "grant copy"; "TLBI"; "Gb/s"; "break-even" ]);
    ("oversub", [ "switches"; "overhead"; "KVM ARM" ]);
    ("disk", [ "SATA3 SSD"; "RAID5"; "4K read" ]);
    ("tail", [ "p99"; "utilization"; "Native" ]);
    ("coldstart", [ "faults"; "cycles/fault"; "KVM ARM (VHE)" ]);
    ("lrs", [ "maintenance"; "LRs" ]);
    ("gicv3", [ "GICv3"; "Hypercall"; "vIRQ-EOI" ]);
    ("ticks", [ "cycles/tick"; "HZ" ]);
    ("linkspeed", [ "GbE"; "Gb/s" ]);
    ("isolation", [ "stddev"; "isolated" ]);
    ("structural", [ "agreement"; "TCP_RR"; "Hackbench" ]);
    ("lazyswitch", [ "lazy FP + VGIC"; "VM-Switch"; "vIRQ-EOI" ]);
    ("guestops", [ "null syscall"; "stage-2"; "left the VM" ]);
    ("crosscall", [ "TLB flush"; "sender cycles"; "no IPIs" ]);
    ("vapic", [ "KVM x86 + vAPIC"; "vIRQ-EOI"; "with vAPIC" ]);
    ("twodwalk", [ "2D walk"; "accesses"; "walk cycles" ]);
    ("multiqueue", [ "queues:"; "KVM ARM"; "Xen ARM" ]);
    ("tracereplay", [ "requests"; "p99 surcharge"; "static" ]);
    ("consolidation", [ "per VM"; "aggregate"; "bottleneck" ]);
    ("migrate", [ "Plan:"; "downtime us"; "KVM ARM (VHE)" ]);
    (* Xen's STREAM bar should be visibly longer than KVM's. *)
    ("fig4chart", [ "Kernbench"; "TCP_STREAM"; "|#"; "====================" ]);
  ]

let render_test (e : Report.entry) =
  Alcotest.test_case e.id `Quick (fun () ->
      match List.assoc_opt e.id needles with
      | None -> Alcotest.failf "registry id %S has no needle row" e.id
      | Some needles ->
          check_render e.id (render e) needles)

let test_needles_known () =
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is a registry id" id)
        true
        (Report.find id <> None))
    needles

(* --- Markdown -------------------------------------------------------------- *)

let report = lazy (Report.markdown ())

let test_markdown_tables () =
  check_render "markdown" (Lazy.force report)
    [
      "| Hypercall | 6500/6500"; "ARM Xen meas/paper";
      "| VGIC Regs | 3250/3250 | 181/181 |"; "| Overhead (us) |";
      "| Apache |"; "n/a (n/a)"; "\nNote: Apache on Xen x86 is n/a";
      "| improvement |";
    ]

let test_markdown_full_report () =
  let report = Lazy.force report in
  check_render "full report" report
    [
      "# armvirt — live results"; "## Table II"; "## Table III"; "## Table V";
      "## Figure 4"; "## Section VI";
    ];
  (* Markdown tables must be well-formed: every row of a table has the
     same number of pipes as its header. *)
  let lines = String.split_on_char '\n' report in
  let pipes s = List.length (String.split_on_char '|' s) - 1 in
  let rec check_tables = function
    | header :: sep :: rest when pipes header > 0 && pipes sep = pipes header ->
        let rec body = function
          | row :: more when pipes row > 0 ->
              Alcotest.(check int) "column count" (pipes header) (pipes row);
              body more
          | rest -> check_tables rest
        in
        body rest
    | _ :: rest -> check_tables rest
    | [] -> ()
  in
  check_tables lines

(* The preamble makes no claim about how paper values appear; each
   section that compares with the paper says it itself, in its title or
   its header row. *)
let test_markdown_cell_formats () =
  let report = Lazy.force report in
  let contains s needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  let digits s =
    s <> "" && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '.') s
  in
  (* "12/11" and "1.03 (1.05)" *)
  let slash_cell c =
    match String.split_on_char '/' c with
    | [ a; b ] -> digits a && digits b
    | _ -> false
  in
  let paren_cell c =
    match String.split_on_char ' ' c with
    | [ a; b ] ->
        digits a
        && String.length b > 2
        && b.[0] = '('
        && b.[String.length b - 1] = ')'
        && digits (String.sub b 1 (String.length b - 2))
    | _ -> false
  in
  (* Split before every "## " heading. *)
  let rec sections acc start i =
    if i + 4 > String.length report then
      List.rev (String.sub report start (String.length report - start) :: acc)
    else if String.sub report i 4 = "\n## " then
      sections (String.sub report start (i + 1 - start) :: acc) (i + 1) (i + 1)
    else sections acc start (i + 1)
  in
  match sections [] 0 0 with
  | [] -> Alcotest.fail "no sections"
  | preamble :: sections ->
      Alcotest.(check bool) "preamble names no cell format" false
        (contains preamble "parenthes" || contains preamble "meas/paper");
      List.iter
        (fun section ->
          let lines = String.split_on_char '\n' section in
          let title = List.hd lines in
          let cells =
            List.concat_map
              (fun l ->
                if String.length l > 0 && l.[0] = '|' then
                  List.map String.trim (String.split_on_char '|' l)
                else [])
              lines
          in
          if List.exists slash_cell cells then
            Alcotest.(check bool) (title ^ " says meas/paper") true
              (contains section "meas/paper");
          if List.exists paren_cell cells then
            Alcotest.(check bool) (title ^ " says paper in parentheses") true
              (contains title "paper in parentheses"))
        sections

(* --- EXPERIMENTS.md ------------------------------------------------------ *)

(* EXPERIMENTS.md's Table V states what [Report.table5] computes: every
   cell, measured and paper value, at the precision the document gives
   it ("10,404 (10,253)" for "10403.6 (10253.0)", "—" for "-"), and the
   transaction-time ratios quoted under the table. *)
let test_experiments_table5 () =
  let doc =
    In_channel.with_open_bin (Filename.concat ".." "EXPERIMENTS.md")
      In_channel.input_all
  in
  let rows = (Report.table5 (Armvirt_core.Experiment.table5 ())).rows in
  (* The markdown rows under "## Table V", header and rule dropped. *)
  let doc_rows =
    let rec table = function
      | l :: rest when String.starts_with ~prefix:"|" l -> l :: table rest
      | "" :: rest -> table rest
      | _ -> []
    in
    let rec from = function
      | l :: rest when String.starts_with ~prefix:"## Table V" l -> table rest
      | _ :: rest -> from rest
      | [] -> []
    in
    match from (String.split_on_char '\n' doc) with
    | _ :: _ :: rows ->
        List.map
          (fun l ->
            String.split_on_char '|' l |> List.map String.trim
            |> List.filter (( <> ) ""))
          rows
    | _ -> []
  in
  let strip s =
    String.of_seq
      (Seq.filter (fun c -> not (String.contains "()," c)) (String.to_seq s))
  in
  let states d r =
    let d = List.map strip (String.split_on_char ' ' d)
    and r = List.map strip (String.split_on_char ' ' r) in
    List.length d = List.length r
    && List.for_all2
         (fun d r ->
           (d = "\u{2014}" && r = "-")
           ||
           let decimals =
             match String.index_opt d '.' with
             | Some i -> String.length d - i - 1
             | None -> 0
           in
           match float_of_string_opt r with
           | Some v -> Printf.sprintf "%.*f" decimals v = d
           | None -> false)
         d r
  in
  Alcotest.(check int) "every row documented" (List.length rows)
    (List.length doc_rows);
  List.iter2
    (fun doc_row row ->
      List.iter2
        (fun d r ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: EXPERIMENTS.md %S, run table5 %S"
               (List.hd row) d r)
            true (states d r))
        (List.tl doc_row) (List.tl row))
    doc_rows rows;
  let time col =
    let row = List.find (fun r -> List.hd r = "Time/trans (us)") rows in
    float_of_string (List.hd (String.split_on_char ' ' (List.nth row col)))
  in
  let ratio =
    Printf.sprintf "%.2f/%.2f\u{00d7} measured" (time 2 /. time 1)
      (time 3 /. time 1)
  in
  Alcotest.(check bool) ("states " ^ ratio) true (contains doc ratio)

let () =
  Alcotest.run "report"
    [
      ("render", List.map render_test Report.registry);
      ( "registry",
        [ Alcotest.test_case "needles name registry ids" `Quick test_needles_known ] );
      ( "markdown",
        [
          Alcotest.test_case "tables" `Quick test_markdown_tables;
          Alcotest.test_case "full report" `Quick test_markdown_full_report;
          Alcotest.test_case "cell formats" `Quick test_markdown_cell_formats;
        ] );
      ( "experiments",
        [ Alcotest.test_case "table5 cells" `Quick test_experiments_table5 ] );
    ]
