module Sim = Armvirt_engine.Sim
module Machine = Armvirt_arch.Machine
module Cost_model = Armvirt_arch.Cost_model
module H = Armvirt_hypervisor

type t = Arm_m400 | Arm_m400_vhe | X86_r320
type hyp_id = Kvm | Xen

let name = function
  | Arm_m400 -> "ARM (HP m400, X-Gene 2.4 GHz)"
  | Arm_m400_vhe -> "ARM v8.1 VHE (modelled)"
  | X86_r320 -> "x86 (Dell r320, Xeon E5-2450 2.1 GHz)"

let num_cpus = 8

let cost = function
  | Arm_m400 -> Cost_model.Arm Cost_model.arm_default
  | Arm_m400_vhe -> Cost_model.Arm Cost_model.arm_vhe
  | X86_r320 -> Cost_model.X86 Cost_model.x86_default

let machine_with ~cost =
  let sim = Sim.create () in
  Machine.create sim ~cost ~num_cpus

let machine p = machine_with ~cost:(cost p)

let kvm_arm () = H.Kvm_arm.create (machine Arm_m400)
let kvm_arm_vhe () = H.Kvm_arm.create (machine Arm_m400_vhe)
let xen_arm ?pinning () = H.Xen_arm.create ?pinning (machine Arm_m400)
let kvm_x86 () = H.Kvm_x86.create (machine X86_r320)
let xen_x86 () = H.Xen_x86.create (machine X86_r320)

let hypervisor p id =
  match (p, id) with
  | Arm_m400, Kvm -> H.Kvm_arm.to_hypervisor (kvm_arm ())
  | Arm_m400_vhe, Kvm -> H.Kvm_arm.to_hypervisor (kvm_arm_vhe ())
  | Arm_m400, Xen -> H.Xen_arm.to_hypervisor (xen_arm ())
  | Arm_m400_vhe, Xen ->
      invalid_arg
        "Platform.hypervisor: Xen is a Type 1 hypervisor and does not set \
         E2H; VHE does not apply"
  | X86_r320, Kvm -> H.Kvm_x86.to_hypervisor (kvm_x86 ())
  | X86_r320, Xen -> H.Xen_x86.to_hypervisor (xen_x86 ())

let native p = H.Native.to_hypervisor (H.Native.create (machine p))
