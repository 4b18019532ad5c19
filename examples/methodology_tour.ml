(* Methodology tour: the measurement discipline of section IV, walked
   end to end — why the paper pinned and isolated, how its timestamping
   works, and how this reproduction cross-checks itself.

   Run with: dune exec examples/methodology_tour.exe *)

module Platform = Armvirt_core.Platform
module Experiment = Armvirt_core.Experiment
module Report = Armvirt_core.Report
module Table = Armvirt_obs.Table
module Isolation = Armvirt_workloads.Isolation

let section title =
  Printf.printf "\n== %s ==\n\n" title

let () =
  print_endline "=== The paper's measurement methodology, reproduced ===";

  section "1. Why pin and isolate (section IV)";
  print_endline
    "The microbenchmarks are hundreds to thousands of cycles; a stray\n\
     interrupt mid-sample skews them by thousands more. The paper pins\n\
     every VCPU to a dedicated PCPU and routes virtual interrupts away\n\
     from the measured one. Breaking that discipline:";
  print_newline ();
  List.iter
    (fun (r : Isolation.result) ->
      Printf.printf "  %-52s median %6.0f  stddev %7.1f  worst %6.0f\n"
        r.Isolation.config r.median r.stddev r.worst)
    (Experiment.isolation ());
  print_newline ();
  print_endline
    "Same operation, same machine: only the discipline differs. The\n\
     median survives contamination, the tails do not — which is why the\n\
     paper could report single representative numbers after isolating.";

  section "2. Timestamps with barriers";
  print_endline
    "Every read of the cycle counter models the paper's isb-fenced\n\
     read: the barrier costs time on the measured CPU and is subtracted\n\
     from the reported interval (Armvirt_stats.Cycle_counter). The\n\
     simulator is deterministic, so where the paper reports a\n\
     representative sample, every sample here is identical — asserted\n\
     by the test suite.";

  section "3. Cross-machine packet timestamping (Table V)";
  print_endline
    "The TCP_RR decomposition synchronizes counters across client,\n\
     host/Dom0 and VM, stamping each packet at every layer\n\
     (Armvirt_net.Packet). The intervals below are means over 400\n\
     transactions:";
  print_newline ();
  Table.text Format.std_formatter (Report.table5 (Experiment.table5 ()));

  section "4. Self-checks: two implementations must agree";
  print_endline
    "The numbers above come from closed-form path composition; the\n\
     lib/system stacks rebuild the same paths from the concrete rings,\n\
     grant tables, event channels and vGIC as cooperating simulation\n\
     processes. If the two disagree, a model is wrong:";
  print_newline ();
  Table.text Format.std_formatter
    (Report.structural (Experiment.structural ()));
  print_newline ();
  print_endline
    "All of this reruns from `dune runtest` — the claims of DESIGN.md\n\
     section 6 are executable."
