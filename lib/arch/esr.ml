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
