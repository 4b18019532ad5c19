(* Extending the library: model a hypervisor design that does not exist.

   Section V speculates about a Xen ARM with zero-copy I/O ("whether
   zero copy support for Xen can be implemented efficiently on ARM,
   which has hardware support for broadcast TLB invalidate requests,
   remains to be investigated"). The public API lets us build that
   machine: take the Xen ARM model, swap its I/O profile for the
   broadcast-TLBI zero-copy variant, and race it against the measured
   hypervisors on the bulk-receive workload it was losing.

   Run with: dune exec examples/custom_hypervisor.exe *)

module Platform = Armvirt_core.Platform
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Xen_arm = Armvirt_hypervisor.Xen_arm
module Netperf = Armvirt_workloads.Netperf
module App_model = Armvirt_workloads.App_model
module Workload = Armvirt_workloads.Workload

let xen_zero_copy () =
  let xen = Platform.xen_arm () in
  let base = Xen_arm.to_hypervisor xen in
  {
    base with
    Hypervisor.name = "Xen ARM (zero copy)";
    io_profile = Xen_arm.io_profile_zero_copy xen;
  }

let () =
  print_endline "=== What if Xen ARM had zero-copy I/O? ===\n";
  let contenders =
    [
      ("KVM ARM", Platform.hypervisor Arm_m400 Kvm);
      ("Xen ARM (grant copy)", Platform.hypervisor Arm_m400 Xen);
      ("Xen ARM (zero copy)", xen_zero_copy ());
    ]
  in
  Printf.printf "%-24s %14s %14s %12s\n" "Hypervisor" "TCP_STREAM"
    "vs native" "bound by";
  Printf.printf "%s\n" (String.make 68 '-');
  List.iter
    (fun (name, hyp) ->
      let r = Netperf.tcp_stream hyp in
      Printf.printf "%-24s %11.2f Gb/s %13.2fx %12s\n" name r.Netperf.gbps
        r.Netperf.stream_normalized r.Netperf.stream_bottleneck)
    contenders;
  print_newline ();
  Printf.printf "%-24s %14s\n" "Hypervisor" "Apache";
  Printf.printf "%s\n" (String.make 40 '-');
  List.iter
    (fun (name, hyp) ->
      let v = App_model.run (Option.get (Workload.find "Apache")) hyp in
      Printf.printf "%-24s %13.2fx\n" name v.App_model.normalized)
    contenders;
  print_newline ();
  print_endline
    "Zero copy would largely close Xen's bulk-throughput gap — the data\n\
     path stops copying — but Apache stays slow: its bottleneck is the\n\
     per-interrupt delivery cost on VCPU0 and the Dom0 round trips, which\n\
     zero copy does not touch. Exactly the paper's argument that I/O\n\
     model and interrupt handling, not transition cost, dominate real\n\
     workloads.\n";
  print_endline
    "(On x86 the same design was tried and abandoned: revoking a grant\n\
     requires an IPI-based TLB shootdown on every CPU. ARM's broadcast\n\
     TLBI is why the what-if is plausible there — see\n\
     `dune exec bin/armvirt.exe -- run zerocopy`.)"
