(* The label rules the declared categories and lanes replaced, kept
   verbatim as the oracle for the differential tests: Span.of_label
   classified an op's label by ordered substring rules, and
   Accounting.lane_of_label put it in a stat lane by five needles.
   Every op and marker the models intern must declare what these rules
   return for its label (test_stat's "declarations match the label
   rules"). Only the tests use it. *)

open Armvirt_obs.Span
open Armvirt_obs.Accounting

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i j = j = nn || (haystack.[i + j] = needle.[j] && at i (j + 1)) in
  let rec go i = i + nn <= nh && (at i 0 || go (i + 1)) in
  nn = 0 || go 0

(* First-match classification of the cost-model labels priced through
   Machine.spend ("kvm_arm.vcpu_resume", "netperf.host_rx_path", ...).
   Rules are ordered: world-switch costs beat trap costs beat interrupt
   costs, so a label like "arm.trap_to_el2" lands in [Trap] while
   "kvm_arm.process_switch" lands in [Vmexit]. *)
let rules =
  [
    (* Migration labels must win the tie: "migrate.wp_fault" contains
       "fault" (Stage2's rule) and "migrate.copy" contains "copy" (Io's),
       but the whole migration vertical belongs in one lane. *)
    (Migrate, [ "migrate"; "precopy"; "dirty_log"; "stop_and_copy"; "blackout" ]);
    (Vmexit,
     [ "vmexit"; "vmentry"; "vcpu_resume"; "process_switch"; "world_switch";
       "vmswitch"; "eret"; "dom0_upcall" ]);
    (Trap,
     [ "trap"; "hvc"; "vmcall"; "hypercall"; "mmio"; "emul"; "dispatch";
       "decode" ]);
    (Irq,
     [ "irq"; "vgic"; "evtchn"; "upcall"; "eoi"; "sgi"; "ipi"; "tick";
       "timer"; "apic"; "icr"; "crosscall" ]);
    (Stage2,
     [ "stage2"; "page_map"; "tlb"; "coldstart"; "grant"; "fault"; "walk" ]);
    (Io,
     [ "netperf"; "rr_system"; "stream_system"; "rx"; "tx"; "blk";
       "backend"; "notify"; "kick"; "copy"; "frame"; "wire"; "dma"; "vhost";
       "signal"; "nic"; "net" ]);
    (Sched, [ "sched"; "steal"; "idle"; "park"; "wake"; "spawn"; "blocked" ]);
  ]

let of_label label =
  let label = String.lowercase_ascii label in
  let matches (_, needles) = List.exists (contains label) needles in
  match List.find_opt matches rules with
  | Some (cat, _) -> cat
  | None -> Other

let guest_needles =
  [ "vm_processing"; "native_server"; "guest"; "virq_complete"; "eoi_vapic" ]

let lane_of_label label =
  if List.exists (contains (String.lowercase_ascii label)) guest_needles then
    Guest
  else Hypervisor

(* Marker.category as it was: exits and entries by constructor, every
   other marker by the rules on its label. *)
let marker_category (m : Armvirt_obs.Marker.t) =
  match m with
  | Exit _ | Entry _ -> Vmexit
  | (Op _ | Port _ | Flood _ | Uplink _) as t ->
      of_label (Armvirt_obs.Marker.label t)
