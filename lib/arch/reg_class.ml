type t =
  | Gp
  | Fp
  | El1_sys
  | Vgic
  | Timer
  | El2_config
  | El2_virtual_memory

let all = [ Gp; Fp; El1_sys; Vgic; Timer; El2_config; El2_virtual_memory ]
let full_world_switch = all
let trap_only = [ Gp ]

let index = function
  | Gp -> 0
  | Fp -> 1
  | El1_sys -> 2
  | Vgic -> 3
  | Timer -> 4
  | El2_config -> 5
  | El2_virtual_memory -> 6

let to_string = function
  | Gp -> "GP Regs"
  | Fp -> "FP Regs"
  | El1_sys -> "EL1 System Regs"
  | Vgic -> "VGIC Regs"
  | Timer -> "Timer Regs"
  | El2_config -> "EL2 Config Regs"
  | El2_virtual_memory -> "EL2 Virtual Memory Regs"
