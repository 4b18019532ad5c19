module Cost_model = Armvirt_arch.Cost_model
module Reg_class = Armvirt_arch.Reg_class
module H = Armvirt_hypervisor
module Platform = Armvirt_core.Platform
module Plan = Armvirt_migrate.Plan
module Topology = Armvirt_vswitch.Topology

type hyp_choice = Kvm | Xen | Native

type fleet_cfg = {
  fleet_vms : int;
  fleet_vcpus : int;
  fleet_timeslice_ms : float;
}

type cluster_cfg = {
  cluster_vms : int;
  cluster_load : float;
  net_queue : int;
  net_uplink_gbps : float;
}

type t = {
  arm : Cost_model.arm;
  tuning : H.Kvm_arm.tuning;
  num_lrs : int;
  vhost : bool;
  hyp : hyp_choice;
  migration : Plan.t;
  fleet : fleet_cfg;
  cluster : cluster_cfg;
}

let default_fleet = { fleet_vms = 16; fleet_vcpus = 1; fleet_timeslice_ms = 1.0 }

let default_cluster =
  {
    cluster_vms = 4;
    cluster_load = 0.8;
    net_queue = 64;
    net_uplink_gbps = 10.0;
  }

let default =
  {
    arm = Cost_model.arm_default;
    tuning = H.Kvm_arm.default_tuning;
    num_lrs = 4;
    vhost = true;
    hyp = Kvm;
    migration = Plan.default;
    fleet = default_fleet;
    cluster = default_cluster;
  }

let hyp_choice_of_string = function
  | "kvm" -> Kvm
  | "xen" -> Xen
  | "native" -> Native
  | s ->
      invalid_arg
        (Printf.sprintf "Config: unknown hypervisor %S (kvm|xen|native)" s)

(* Every integer cost knob is a cycle count in 0..max_cost: a negative
   cost would run simulated time backwards, and 10^9 cycles a step keeps
   the longest objective far from overflowing it. *)
let max_cost = 1_000_000_000
let cost what = Printf.sprintf "%s (cycles, 0..%d)" what max_cost

let knobs =
  [
    ("vgic.save", cost "VGIC register-class save cost (Table III's 3250)");
    ("vgic.restore", cost "VGIC register-class restore cost (Table III's 181)");
    ("trap_to_el2", cost "hardware trap cost into EL2");
    ("eret", cost "exception return from EL2");
    ("hvc_issue", cost "guest-side HVC issue cost");
    ("stage2_toggle", cost "one Stage-2/trap reconfiguration of HCR_EL2");
    ("vgic_slot_scan", cost "list-register status scan before injection");
    ("vgic_lr_write", cost "one list-register write");
    ("virq_complete", cost "trap-free virtual interrupt completion");
    ("mmio_decode", cost "Stage-2 abort syndrome decode");
    ("freq_ghz", "core clock in GHz (float, finite and > 0)");
    ("vhe", "ARMv8.1 VHE on/off (bool; forced off for xen/native)");
    ("lazy_fp", "lazy FP switch tuning flag (bool)");
    ("lazy_vgic", "lazy VGIC read-back tuning flag (bool)");
    ("host_dispatch", cost "host-side KVM run-loop cost");
    ("vcpu_resume", cost "blocked-VCPU wakeup cost");
    ("vhost_per_packet", cost "VHOST backend per-packet cost");
    ("process_switch", cost "VM-to-VM process switch cost");
    ("lr_count", "GIC list registers available to the VM (int)");
    ("vhost", "in-kernel VHOST backend on/off (bool; off quadruples the \
               per-packet backend cost, modelling a userspace backend)");
    ("hyp", "which hypervisor runs the point (kvm|xen|native)");
    ("stage2_wp_fault", cost "stage-2 write-protection fault handling cost \
                              (dirty logging, distinct from a missing mapping)");
    ("mig.txn_rate_hz", "migration workload request arrival rate (float, \
                         sets the guest dirty rate)");
    ("mig.bandwidth_gbps", "migration link bandwidth in Gbps (float)");
    ("mig.page_kb", "migration page granule in KiB (int; total guest \
                     memory is held constant)");
    ("mig.max_rounds", "pre-copy round cap before forced stop-and-copy");
    ("mig.downtime_us", "downtime SLO driving pre-copy convergence (float)");
    ( "fleet.vms",
      Printf.sprintf
        "guests consolidated on the host for the fleet-* objectives (int, \
         1..%d)"
        Armvirt_fleet.Descriptor.max_vms );
    ( "fleet.vcpus",
      Printf.sprintf
        "VCPUs per fleet guest (int; 2 at 8 PCPUs is 4x overcommit at 16 \
         VMs; fleet.vms x fleet.vcpus at most %d)"
        Armvirt_fleet.Descriptor.max_vcpus );
    ("fleet.timeslice_ms", "credit-scheduler timeslice in ms (float)");
    ( "cluster.vms",
      Printf.sprintf
        "VMs on the two-host cluster topology for the cluster-* objectives \
         (int, 2..%d)"
        Topology.max_vms );
    ( "cluster.load",
      Printf.sprintf
        "offered load as a fraction of the backend pool's aggregate native \
         capacity (float, %g..%g)"
        Armvirt_workloads.Cluster.min_load Armvirt_workloads.Cluster.max_load
    );
    ( "net.queue",
      Printf.sprintf
        "virtual-switch per-port egress queue capacity in frames (int, >= \
         %d: the cluster-pair/xhost matrix keeps that many chunks in \
         flight and waits for each)"
        Armvirt_workloads.Cluster.matrix_window );
    ("net.uplink_gbps", "cross-host uplink wire rate in Gbps (float)");
  ]

let as_int name = function
  | Space.Int n -> n
  | v ->
      invalid_arg
        (Printf.sprintf "Config: %s wants an int, got %s" name
           (Space.value_to_string v))

let as_float name = function
  | Space.Float f -> f
  | Space.Int n -> float_of_int n
  | v ->
      invalid_arg
        (Printf.sprintf "Config: %s wants a float, got %s" name
           (Space.value_to_string v))

let as_bool name = function
  | Space.Bool b -> b
  | v ->
      invalid_arg
        (Printf.sprintf "Config: %s wants a bool, got %s" name
           (Space.value_to_string v))

let as_cost name v =
  let n = as_int name v in
  if n < 0 || n > max_cost then
    invalid_arg
      (Printf.sprintf "Config: %s outside 0..%d cycles" name max_cost);
  n

let vgic_costs arm = arm.Cost_model.reg Reg_class.Vgic

let apply t name v =
  let arm f = { t with arm = f t.arm } in
  let tuning f = { t with tuning = f t.tuning } in
  let mig f =
    let m = f t.migration in
    Plan.validate m;
    { t with migration = m }
  in
  match name with
  | "vgic.save" ->
      let save = as_cost name v and restore = (vgic_costs t.arm).restore in
      arm (Cost_model.with_reg_cost Reg_class.Vgic ~save ~restore)
  | "vgic.restore" ->
      let save = (vgic_costs t.arm).save and restore = as_cost name v in
      arm (Cost_model.with_reg_cost Reg_class.Vgic ~save ~restore)
  | "trap_to_el2" -> arm (fun a -> { a with trap_to_el2 = as_cost name v })
  | "eret" -> arm (fun a -> { a with eret = as_cost name v })
  | "hvc_issue" -> arm (fun a -> { a with hvc_issue = as_cost name v })
  | "stage2_toggle" -> arm (fun a -> { a with stage2_toggle = as_cost name v })
  | "vgic_slot_scan" -> arm (fun a -> { a with vgic_slot_scan = as_cost name v })
  | "vgic_lr_write" -> arm (fun a -> { a with vgic_lr_write = as_cost name v })
  | "virq_complete" -> arm (fun a -> { a with virq_complete = as_cost name v })
  | "mmio_decode" -> arm (fun a -> { a with mmio_decode = as_cost name v })
  | "freq_ghz" ->
      let ghz = as_float name v in
      if not (Float.is_finite ghz && ghz > 0.0) then
        invalid_arg "Config: freq_ghz must be finite and > 0";
      arm (fun a -> { a with freq_ghz = ghz })
  | "vhe" -> arm (Cost_model.with_vhe (as_bool name v))
  | "lazy_fp" -> tuning (fun u -> { u with H.Kvm_arm.lazy_fp = as_bool name v })
  | "lazy_vgic" ->
      tuning (fun u -> { u with H.Kvm_arm.lazy_vgic = as_bool name v })
  | "host_dispatch" ->
      tuning (fun u -> { u with H.Kvm_arm.host_dispatch = as_cost name v })
  | "vcpu_resume" ->
      tuning (fun u -> { u with H.Kvm_arm.vcpu_resume = as_cost name v })
  | "vhost_per_packet" ->
      tuning (fun u -> { u with H.Kvm_arm.vhost_per_packet = as_cost name v })
  | "process_switch" ->
      tuning (fun u -> { u with H.Kvm_arm.process_switch = as_cost name v })
  | "lr_count" ->
      let n = as_int name v in
      if n < 1 then invalid_arg "Config: lr_count < 1";
      { t with num_lrs = n }
  | "vhost" -> { t with vhost = as_bool name v }
  | "hyp" -> (
      match v with
      | Space.Choice s -> { t with hyp = hyp_choice_of_string s }
      | v ->
          invalid_arg
            (Printf.sprintf "Config: hyp wants kvm|xen|native, got %s"
               (Space.value_to_string v)))
  | "stage2_wp_fault" ->
      arm (Cost_model.with_stage2_wp_fault (as_cost name v))
  | "mig.txn_rate_hz" ->
      mig (fun m -> { m with Plan.txn_rate_hz = as_float name v })
  | "mig.bandwidth_gbps" ->
      mig (fun m -> { m with Plan.bandwidth_gbps = as_float name v })
  | "mig.page_kb" ->
      (* Resize the granule, hold guest memory and the hot-set byte
         footprint constant: 4096 x 4K and 2048 x 8K are the same VM. *)
      mig (fun m ->
          let kb = as_int name v in
          if kb < 1 then invalid_arg "Config: mig.page_kb < 1";
          let total_kb = m.Plan.pages * m.Plan.page_kb in
          let hot_kb = m.Plan.hot_pages * m.Plan.page_kb in
          {
            m with
            Plan.page_kb = kb;
            pages = max 1 (total_kb / kb);
            hot_pages = max 1 (hot_kb / kb);
          })
  | "mig.max_rounds" ->
      mig (fun m -> { m with Plan.max_rounds = as_int name v })
  | "mig.downtime_us" ->
      mig (fun m -> { m with Plan.downtime_target_us = as_float name v })
  | "fleet.vms" ->
      let n = as_int name v in
      if n < 1 || n > Armvirt_fleet.Descriptor.max_vms then
        invalid_arg
          (Printf.sprintf "Config: fleet.vms outside 1..%d"
             Armvirt_fleet.Descriptor.max_vms);
      { t with fleet = { t.fleet with fleet_vms = n } }
  | "fleet.vcpus" ->
      let n = as_int name v in
      if n < 1 then invalid_arg "Config: fleet.vcpus < 1";
      { t with fleet = { t.fleet with fleet_vcpus = n } }
  | "fleet.timeslice_ms" ->
      let ms = as_float name v in
      if ms <= 0.0 then invalid_arg "Config: fleet.timeslice_ms <= 0";
      { t with fleet = { t.fleet with fleet_timeslice_ms = ms } }
  | "cluster.vms" ->
      let n = as_int name v in
      if n < 2 || n > Topology.max_vms then
        invalid_arg
          (Printf.sprintf "Config: cluster.vms outside 2..%d" Topology.max_vms);
      { t with cluster = { t.cluster with cluster_vms = n } }
  | "cluster.load" ->
      let l = as_float name v in
      if
        not
          (l >= Armvirt_workloads.Cluster.min_load
          && l <= Armvirt_workloads.Cluster.max_load)
      then
        invalid_arg
          (Printf.sprintf "Config: cluster.load outside %g..%g"
             Armvirt_workloads.Cluster.min_load
             Armvirt_workloads.Cluster.max_load);
      { t with cluster = { t.cluster with cluster_load = l } }
  | "net.queue" ->
      let n = as_int name v in
      if n < Armvirt_workloads.Cluster.matrix_window then
        invalid_arg
          (Printf.sprintf "Config: net.queue < %d (the matrix window)"
             Armvirt_workloads.Cluster.matrix_window);
      { t with cluster = { t.cluster with net_queue = n } }
  | "net.uplink_gbps" ->
      let g = as_float name v in
      if g <= 0.0 then invalid_arg "Config: net.uplink_gbps <= 0";
      { t with cluster = { t.cluster with net_uplink_gbps = g } }
  | _ ->
      invalid_arg
        (Printf.sprintf "Config: unknown knob %S (see Config.knobs)" name)

let fleet_descriptor t =
  Armvirt_fleet.Descriptor.v ~timeslice_ms:t.fleet.fleet_timeslice_ms
    ~vms:t.fleet.fleet_vms
    [
      ( { Armvirt_fleet.Descriptor.synthetic with vcpus = t.fleet.fleet_vcpus },
        1 );
    ]

(* The fleet VCPU budget couples two knobs: building the point's fleet
   checks it. *)
let apply_point t point =
  let t = List.fold_left (fun t (k, v) -> apply t k v) t point in
  ignore (fleet_descriptor t);
  t

let hypervisor t =
  (* Xen is Type 1 and Native has no EL2 resident — E2H stays clear for
     both, so a sweep mixing hypervisors never hits the Platform guard. *)
  let arm =
    match t.hyp with Kvm -> t.arm | Xen | Native -> Cost_model.with_vhe false t.arm
  in
  let machine = Platform.machine_with ~cost:(Cost_model.Arm arm) in
  match t.hyp with
  | Kvm ->
      let tuning =
        if t.vhost then t.tuning
        else
          {
            t.tuning with
            H.Kvm_arm.vhost_per_packet = t.tuning.H.Kvm_arm.vhost_per_packet * 4;
          }
      in
      H.Kvm_arm.to_hypervisor (H.Kvm_arm.create ~tuning machine)
  | Xen -> H.Xen_arm.to_hypervisor (H.Xen_arm.create machine)
  | Native -> H.Native.to_hypervisor (H.Native.create machine)
