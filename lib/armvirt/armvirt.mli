(** The umbrella module: every library of the reproduction under one
    roof, for interactive use and downstream consumers who prefer a
    single entry point.

    {[
      # let kvm = Armvirt.Core.Platform.hypervisor Arm_m400 Kvm;;
      # Armvirt.Workloads.Microbench.(to_rows (run kvm));;
    ]}

    Layering (lowest first): {!Engine} → {!Stats} → {!Arch} → {!Mem},
    {!Gic}, {!Timer}, {!Net} → {!Io}, {!Guest} → {!Hypervisor} →
    {!Workloads}, {!System} → {!Core}. See DESIGN.md for the full
    inventory and EXPERIMENTS.md for paper-vs-measured results. *)

module Engine = Armvirt_engine
(** Deterministic discrete-event simulation: {!Armvirt_engine.Sim},
    {!Armvirt_engine.Cycles}, {!Armvirt_engine.Rng}. *)

module Obs = Armvirt_obs
(** Structured observability: span tracing, Chrome/Perfetto export,
    labelled metric registries. *)

module Stats = Armvirt_stats
(** Summaries, counters, barriered cycle counters. *)

module Arch = Armvirt_arch
(** Cost models and architectural operations: ARM EL2/VHE, x86 VMX,
    world state machines, system-register redirection. *)

module Mem = Armvirt_mem
(** Stage-2 translation, TLBs, Xen grant tables. *)

module Gic = Armvirt_gic
(** GIC distributor, hardware vGIC list registers, x86 APIC. *)

module Timer = Armvirt_timer
(** The ARM generic virtual timer. *)

module Net = Armvirt_net
(** Packets with tcpdump-style stamps, 10 GbE links, NICs. *)

module Io = Armvirt_io
(** Virtqueues, event channels, PV rings, block devices. *)

module Guest = Armvirt_guest
(** The Linux guest/host path-length model. *)

module Hypervisor = Armvirt_hypervisor
(** KVM ARM (split-mode and VHE), Xen ARM, KVM x86, Xen x86, native;
    the credit scheduler; the uniform hypervisor interface. *)

module Workloads = Armvirt_workloads
(** Table I microbenchmarks, Table IV application profiles, Netperf,
    and the extension experiments. *)

module System = Armvirt_system
(** Structural end-to-end stacks assembled from the concrete pieces. *)

module Core = Armvirt_core
(** Platforms, the paper's published data, the experiment registry and
    the paper-vs-measured reports. *)

module Explore = Armvirt_explore
(** Design-space exploration: parameter spaces over cost-model and
    tuning knobs, deterministic samplers, Pareto/sensitivity analysis
    and calibration search against the paper's targets. *)
