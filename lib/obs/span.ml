type category =
  | Migrate
  | Trap
  | Vmexit
  | Irq
  | Stage2
  | Io
  | Sched
  | Other

let categories = [| Migrate; Trap; Vmexit; Irq; Stage2; Io; Sched; Other |]

let category_index = function
  | Migrate -> 0
  | Trap -> 1
  | Vmexit -> 2
  | Irq -> 3
  | Stage2 -> 4
  | Io -> 5
  | Sched -> 6
  | Other -> 7

let category_to_string = function
  | Migrate -> "migrate"
  | Trap -> "trap"
  | Vmexit -> "vmexit"
  | Irq -> "irq"
  | Stage2 -> "stage2"
  | Io -> "io"
  | Sched -> "sched"
  | Other -> "other"

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

type kind = Complete of int | Instant | Value of int

type event = {
  ts : int;
  track : string;
  cat : category;
  name : string;
  kind : kind;
}

let duration e = match e.kind with Complete d -> d | Instant | Value _ -> 0
