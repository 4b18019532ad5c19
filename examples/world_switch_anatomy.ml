(* World-switch anatomy: where do 6,500 cycles go when a split-mode KVM
   ARM VM makes a no-op hypercall? This walks the transition with the
   machine's cycle accounting turned on, reproducing the reasoning
   behind the paper's Table III — and then shows what ARMv8.1 VHE
   (section VI) deletes from the bill.

   Run with: dune exec examples/world_switch_anatomy.exe *)

module Sim = Armvirt_engine.Sim
module Counter = Armvirt_stats.Counter
module Machine = Armvirt_arch.Machine
module Platform = Armvirt_core.Platform
module Kvm_arm = Armvirt_hypervisor.Kvm_arm

let run_one_hypercall kvm =
  let machine = Kvm_arm.machine kvm in
  Sim.spawn (Machine.sim machine) ~name:"vm" (fun () ->
      Kvm_arm.hypercall kvm);
  Sim.run (Machine.sim machine);
  machine

let total machine =
  List.fold_left
    (fun acc (o : Armvirt_obs.Accounting.spent) -> acc + o.cycles)
    0 (Machine.op_cycles machine)

let print_bill title machine =
  let counters = Machine.counters machine in
  Printf.printf "%s\n%s\n" title (String.make 60 '-');
  List.iter
    (fun name ->
      Printf.printf "  %-40s %8d cycles\n" name (Counter.get counters name))
    (List.filter
       (fun n -> String.length n > 4 && String.sub n 0 4 <> "kvm_")
       (Counter.names counters));
  Printf.printf "  %-40s %8d cycles\n\n" "TOTAL" (total machine)

let () =
  print_endline "=== Anatomy of a split-mode world switch ===\n";
  print_endline
    "One no-op hypercall on KVM ARM (ARMv8, no VHE). Both the host and\n\
     the VM live in EL1, so EL2 must swap the entire EL1 world through\n\
     memory in both directions:\n";
  let split = run_one_hypercall (Platform.kvm_arm ()) in
  print_bill "ARMv8 split-mode KVM" split;

  print_endline
    "The VGIC read-back dominates: pulling the GIC virtual interface\n\
     state back over the interconnect costs 3,250 of the ~6,500 cycles.\n";

  print_endline
    "Now the same hypercall on the ARMv8.1 machine with VHE: the host\n\
     kernel runs in EL2, so there is no EL1 state to swap, no Stage-2\n\
     toggling, no double trap:\n";
  let vhe = run_one_hypercall (Platform.kvm_arm_vhe ()) in
  print_bill "ARMv8.1 VHE KVM" vhe;

  Printf.printf
    "VHE deletes %d of %d cycles (%.0fx faster) — the architectural fix\n\
     the paper proposed and ARM adopted in ARMv8.1.\n"
    (total split - total vhe)
    (total split)
    (float_of_int (total split) /. float_of_int (total vhe));
  print_newline ();
  print_endline "Per-class cost of the state switch (the paper's Table III):";
  List.iter
    (fun (cls, save, restore) ->
      Printf.printf "  %-26s save %5d   restore %5d\n"
        (Armvirt_arch.Reg_class.to_string cls)
        save restore)
    (Kvm_arm.hypercall_breakdown (Platform.kvm_arm ()))
