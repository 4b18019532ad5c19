let intern machine = Armvirt_arch.Machine.marker machine "kvm_arm.exit/hvc/p4"
