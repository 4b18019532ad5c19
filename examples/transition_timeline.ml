(* Transition timelines: a cycle-accurate ledger of each hypervisor's
   I/O Latency Out path, recorded through the machine's sink — the
   closest thing to watching the paper's Table II rows happen.

   Run with: dune exec examples/transition_timeline.exe *)

module Sim = Armvirt_engine.Sim
module Machine = Armvirt_arch.Machine
module Span = Armvirt_obs.Span
module Tracer = Armvirt_obs.Tracer
module Observe = Armvirt_core.Observe
module Platform = Armvirt_core.Platform
module Hypervisor = Armvirt_hypervisor.Hypervisor

(* Total cycles per label, largest first; equal totals sort by label. *)
let by_label events =
  List.fold_left
    (fun acc (e : Span.event) ->
      let prev = Option.value ~default:0 (List.assoc_opt e.name acc) in
      (e.name, prev + Span.duration e) :: List.remove_assoc e.name acc)
    [] events
  |> List.sort (fun (la, a) (lb, b) ->
         match Int.compare b a with 0 -> String.compare la lb | c -> c)

let timeline name (hyp : Hypervisor.t) =
  let machine = hyp.Hypervisor.machine in
  let tracer = Tracer.create () in
  Sim.spawn (Machine.sim machine) ~name:"probe" (fun () ->
      (* Attach the sink only for the measured path. *)
      Machine.attach machine (Some (Observe.machine_sink ~track:"cpu" tracer));
      ignore (hyp.Hypervisor.io_latency_out ());
      Machine.attach machine None);
  Sim.run (Machine.sim machine);
  let events = Tracer.events tracer in
  Printf.printf "%s — I/O Latency Out, step by step\n%s\n" name
    (String.make 64 '-');
  Format.printf "%a" Observe.pp_timeline events;
  Printf.printf "%-12s total %d cycles\n\n" ""
    (List.fold_left (fun n e -> n + Span.duration e) 0 events);
  Printf.printf "Where it went:\n";
  List.iter
    (fun (label, cycles) ->
      if cycles > 0 then Printf.printf "  %-34s %8d\n" label cycles)
    (by_label events);
  print_newline ()

let () =
  print_endline "=== Anatomy of an I/O kick, per hypervisor ===\n";
  timeline "KVM ARM (split-mode)" (Platform.hypervisor Arm_m400 Kvm);
  timeline "Xen ARM (Type 1 + Dom0)" (Platform.hypervisor Arm_m400 Xen);
  timeline "KVM ARM (VHE)" (Platform.hypervisor Arm_m400_vhe Kvm);
  print_endline
    "KVM burns its cycles saving the EL1 world (the VGIC line dominates);\n\
     Xen's trap is nearly free but the path detours through a physical\n\
     IPI, a full VM switch away from the idle domain and Dom0's upcall\n\
     chain; VHE is a bare trap plus an ioeventfd — the design ARM\n\
     adopted in v8.1."
