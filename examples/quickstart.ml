(* Quickstart: build the paper's two ARM hypervisors, run the Table I
   microbenchmark suite on each, and print the headline contrast —
   Type 1 transitions are an order of magnitude cheaper on ARM, but
   I/O latency tells the opposite story.

   Run with: dune exec examples/quickstart.exe *)

module Platform = Armvirt_core.Platform
module Microbench = Armvirt_workloads.Microbench

let () =
  print_endline "=== ARM virtualization quickstart ===\n";
  (* Each hypervisor gets a fresh simulated HP m400 (8 cores, 2.4 GHz),
     with the paper's pinning: VM VCPUs on PCPUs 4-7. *)
  let kvm = Platform.hypervisor Arm_m400 Kvm in
  let xen = Platform.hypervisor Arm_m400 Xen in
  let kvm_rows = Microbench.to_rows (Microbench.run kvm) in
  let xen_rows = Microbench.to_rows (Microbench.run xen) in
  Printf.printf "%-28s %12s %12s\n" "Microbenchmark (cycles)" "KVM ARM"
    "Xen ARM";
  Printf.printf "%s\n" (String.make 54 '-');
  List.iter
    (fun (name, kvm_cycles) ->
      Printf.printf "%-28s %12d %12d\n" name kvm_cycles
        (List.assoc name xen_rows))
    kvm_rows;
  print_newline ();
  let assoc name rows = List.assoc name rows in
  let ratio a b = float_of_int a /. float_of_int b in
  Printf.printf
    "Hypercall: Xen (Type 1, resident in EL2) transitions %.1fx faster\n"
    (ratio (assoc "Hypercall" kvm_rows) (assoc "Hypercall" xen_rows));
  Printf.printf
    "I/O Latency Out: yet KVM signals its backend %.1fx faster,\n"
    (ratio (assoc "I/O Latency Out" xen_rows) (assoc "I/O Latency Out" kvm_rows));
  print_endline
    "because Xen's I/O lives in Dom0, a full VM switch away — the paper's\n\
     central finding: transition microbenchmarks do not predict application\n\
     performance. Run `dune exec bin/armvirt.exe -- run` to regenerate every table\n\
     and figure."
