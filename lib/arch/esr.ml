type exception_class =
  | Wfi_wfe
  | Hvc64
  | Smc64
  | Sysreg_trap
  | Inst_abort_lower
  | Data_abort_lower
  | Irq

let ec = function
  | Wfi_wfe -> 0x01
  | Hvc64 -> 0x16
  | Smc64 -> 0x17
  | Sysreg_trap -> 0x18
  | Inst_abort_lower -> 0x20
  | Data_abort_lower -> 0x24
  | Irq -> 0x3f

let all =
  [ Wfi_wfe; Hvc64; Smc64; Sysreg_trap; Inst_abort_lower; Data_abort_lower; Irq ]

let of_ec code = List.find_opt (fun cls -> ec cls = code) all

let iss_bits = 25
let il_bit = 1 lsl iss_bits

let encode cls ~iss =
  if iss < 0 || iss >= il_bit then
    invalid_arg "Esr.encode: ISS exceeds 25 bits";
  (ec cls lsl 26) lor il_bit lor iss

let decode syndrome =
  let code = (syndrome lsr 26) land 0x3f in
  Option.map (fun cls -> (cls, syndrome land (il_bit - 1))) (of_ec code)

(* Obs sits below arch in the library graph, so Marker carries its own
   reason enum; this exhaustive match is the single mapping point — a
   new exception class fails to compile until Marker learns it too. *)
let marker_reason = function
  | Wfi_wfe -> Armvirt_obs.Marker.Wfx
  | Hvc64 -> Armvirt_obs.Marker.Hvc
  | Smc64 -> Armvirt_obs.Marker.Smc
  | Sysreg_trap -> Armvirt_obs.Marker.Sysreg
  | Inst_abort_lower -> Armvirt_obs.Marker.Iabt
  | Data_abort_lower -> Armvirt_obs.Marker.Dabt
  | Irq -> Armvirt_obs.Marker.Irq

let describe = function
  | Wfi_wfe -> "WFI/WFE: the guest idled"
  | Hvc64 -> "HVC: hypercall"
  | Smc64 -> "SMC: secure monitor call"
  | Sysreg_trap -> "trapped MSR/MRS system-register access"
  | Inst_abort_lower -> "stage-2 instruction abort from a lower EL"
  | Data_abort_lower -> "stage-2 data abort from a lower EL (MMIO/fill)"
  | Irq -> "physical interrupt while the VM ran"
