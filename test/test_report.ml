(* Rendering smoke tests: every registry entry runs its experiment and
   printer without raising (format-string bugs surface here) and mentions
   the strings a reader would look for. *)

module Report = Armvirt_core.Report

let render run =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  run ppf;
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
          check_render e.id (render e.run) needles)

let test_needles_known () =
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is a registry id" id)
        true
        (Report.find id <> None))
    needles

(* --- Markdown -------------------------------------------------------------- *)

module Markdown = Armvirt_core.Markdown

let test_markdown_tables () =
  let t2 = Markdown.table2 () in
  check_render "markdown table2" t2 [ "| Hypercall | 6500 / 6500"; "ARM Xen" ];
  let t3 = Markdown.table3 () in
  check_render "markdown table3" t3 [ "VGIC Regs | 3250 | 181" ];
  let f4 = Markdown.fig4 () in
  check_render "markdown fig4" f4 [ "| Apache |"; "n/a" ]

let test_markdown_full_report () =
  let report = Markdown.full_report () in
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
        ] );
    ]
