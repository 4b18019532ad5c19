module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Rng = Armvirt_engine.Rng
module Summary = Armvirt_stats.Summary
module Machine = Armvirt_arch.Machine
module Marker = Armvirt_obs.Marker
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Credit_sched = Armvirt_hypervisor.Credit_sched
module Transitions = Armvirt_arch.Transitions

(* --- the quantum-stepped host ---------------------------------------- *)

type host = {
  machine : Machine.t;
  sim : Sim.t;
  sched : Credit_sched.t;
  pool : Pool.t;
  desc : Descriptor.t;
  num_pcpus : int;
  timeslice : int; (* cycles *)
  transitions : Transitions.t;
      (* the model's own exit/entry markers, so fleet entries land in the
         same `d<domid>` stat lanes as the model's exit paths *)
  mutable rr_pcpu : int; (* round-robin VCPU placement cursor *)
  mutable active : int; (* runnable VCPUs with work left *)
  mutable quanta : int;
}

let cycles_of_ms machine ms =
  int_of_float (ms *. Machine.freq_ghz machine *. 1e9 /. 1e3)

let to_ms machine c = float_of_int c /. (Machine.freq_ghz machine *. 1e9 /. 1e3)

let make_host (hyp : Hypervisor.t) (desc : Descriptor.t) =
  Descriptor.validate desc;
  let machine = hyp.Hypervisor.machine in
  let timeslice = Stdlib.max 1 (cycles_of_ms machine desc.timeslice_ms) in
  let num_pcpus = Machine.num_cpus machine in
  {
    machine;
    sim = Machine.sim machine;
    sched = Credit_sched.create ~num_pcpus ~timeslice_cycles:timeslice;
    pool = Pool.create ();
    desc;
    num_pcpus;
    timeslice;
    transitions = hyp.Hypervisor.transitions;
    rr_pcpu = 0;
    active = 0;
    quanta = 0;
  }

(* Admit one guest: pooled slot, per-VCPU work, VCPUs placed round-robin
   across the PCPUs in admission order (deterministic overcommit). *)
let admit host ~(profile : Descriptor.profile) ~profile_idx ~now ~work_of =
  let domid =
    Pool.admit host.pool ~profile:profile_idx ~vcpus:profile.Descriptor.vcpus
      ~now
  in
  let slot = Pool.slot host.pool domid in
  for index = 0 to profile.Descriptor.vcpus - 1 do
    slot.Pool.work.(index) <- Stdlib.max 1 (work_of index);
    let vcpu = { Credit_sched.dom = domid; index } in
    Credit_sched.add_vcpu ~weight:profile.Descriptor.weight
      ~cap:profile.Descriptor.cap_pct host.sched vcpu ~affinity:host.rr_pcpu;
    host.rr_pcpu <- (host.rr_pcpu + 1) mod host.num_pcpus;
    Credit_sched.set_runnable host.sched vcpu true;
    host.active <- host.active + 1
  done;
  domid

(* One scheduling quantum across every PCPU. [service v ~pcpu ~now]
   executes the picked VCPU for at most one timeslice and returns the
   cycles to charge. World switches emit the same exit/entry marker
   grammar the hypervisor models use, entries tagged with the incoming
   domain so `armvirt stat --per-domain` can split the fleet. *)
let dispatch host ~service =
  host.quanta <- host.quanta + 1;
  if host.quanta mod host.desc.Descriptor.refill_quanta = 0 then
    Credit_sched.periodic_refill host.sched
      ~cycles:(host.desc.Descriptor.refill_quanta * host.timeslice);
  let now = Cycles.to_int (Sim.current_time ()) in
  for pcpu = 0 to host.num_pcpus - 1 do
    let prev = Credit_sched.current host.sched ~pcpu in
    match Credit_sched.pick host.sched ~pcpu with
    | None ->
        if Option.is_some prev then
          Machine.count (Transitions.exit host.transitions Marker.Irq ~pcpu)
    | Some v ->
        let switched =
          match prev with
          | None -> true
          | Some p -> not (Credit_sched.equal_vcpu p v)
        in
        if switched then begin
          if Option.is_some prev then
            Machine.count (Transitions.exit host.transitions Marker.Irq ~pcpu);
          Machine.count
            (Transitions.entry ~domid:v.Credit_sched.dom host.transitions ~pcpu)
        end;
        let used = service v ~pcpu ~now in
        Credit_sched.charge host.sched ~pcpu ~cycles:used
  done

(* Burn down the picked VCPU's pooled work; [on_vm_done domid now_done]
   fires when its last VCPU finishes. *)
let slot_service host ~on_vm_done v ~pcpu:_ ~now =
  let slot = Pool.slot host.pool v.Credit_sched.dom in
  let left = slot.Pool.work.(v.Credit_sched.index) in
  let used = Stdlib.min left host.timeslice in
  slot.Pool.work.(v.Credit_sched.index) <- left - used;
  if left - used <= 0 then begin
    Credit_sched.set_runnable host.sched v false;
    host.active <- host.active - 1;
    slot.Pool.pending_vcpus <- slot.Pool.pending_vcpus - 1;
    if slot.Pool.pending_vcpus = 0 then
      on_vm_done v.Credit_sched.dom (now + used)
  end;
  used

let quantum host = Cycles.of_int host.timeslice

(* --- boot-storm ------------------------------------------------------ *)

type boot_storm_result = {
  config : string;
  vms : int;
  window_ms : float;
  time_to_ready_ms : float;
  mean_boot_ms : float;
  p99_boot_ms : float;
  switches : int;
  peak_live : int;
}

let boot_storm ?(seed = 42) ?(window_ms = 4.0) (hyp : Hypervisor.t) desc =
  if window_ms < 0.0 then invalid_arg "Scenario.boot_storm: negative window";
  let host = make_host hyp desc in
  let vms = desc.Descriptor.vms in
  let window = cycles_of_ms host.machine window_ms in
  let rng = Rng.create ~seed in
  let offsets =
    Array.init vms (fun _ -> Rng.int rng ~bound:(Stdlib.max 1 (window + 1)))
  in
  Array.sort Int.compare offsets;
  let boot_ms = ref [] in
  let last_ready = ref 0 in
  let ready = ref 0 in
  let on_vm_done domid now_done =
    let slot = Pool.slot host.pool domid in
    slot.Pool.state <- Pool.Ready;
    slot.Pool.ready_at <- now_done;
    if now_done > !last_ready then last_ready := now_done;
    boot_ms :=
      to_ms host.machine (now_done - slot.Pool.arrived_at) :: !boot_ms;
    incr ready
  in
  let service = slot_service host ~on_vm_done in
  Sim.spawn host.sim ~name:"fleet-boot-storm" (fun () ->
      let next = ref 0 in
      while !ready < vms do
        let now = Cycles.to_int (Sim.current_time ()) in
        while !next < vms && offsets.(!next) <= now do
          let i = !next in
          let p = Descriptor.profile_of desc i in
          ignore
            (admit host ~profile:p ~profile_idx:i ~now ~work_of:(fun _ ->
                 p.Descriptor.boot_cycles));
          incr next
        done;
        if host.active > 0 then begin
          dispatch host ~service;
          Sim.delay (quantum host)
        end
        else if !next < vms then
          Sim.delay (Cycles.of_int (offsets.(!next) - now))
      done);
  Sim.run host.sim;
  let summary = Summary.of_list !boot_ms in
  {
    config = hyp.Hypervisor.name;
    vms;
    window_ms;
    time_to_ready_ms = to_ms host.machine !last_ready;
    mean_boot_ms = Summary.mean summary;
    p99_boot_ms = Summary.percentile summary 99.0;
    switches = Credit_sched.switches host.sched;
    peak_live = Pool.peak_live host.pool;
  }

(* --- churn ----------------------------------------------------------- *)

type churn_result = {
  config : string;
  initial_vms : int;
  arrivals : int;
  admitted : int;
  retired : int;
  peak_live : int;
  domid_reuses : int;
  drain_ms : float;
  switches : int;
}

let churn ?(seed = 42) ?arrivals ?(horizon_ms = 24.0) (hyp : Hypervisor.t)
    desc =
  if horizon_ms <= 0.0 then invalid_arg "Scenario.churn: non-positive horizon";
  let host = make_host hyp desc in
  let initial = desc.Descriptor.vms in
  let arrivals = Option.value arrivals ~default:initial in
  let horizon = cycles_of_ms host.machine horizon_ms in
  let rng = Rng.create ~seed in
  (* Poisson arrival process over the horizon; each guest's lifetime is
     exponentially distributed work around its profile's mean. Both
     streams come off one deterministic Rng in admission order, so the
     run is seed-reproducible and jobs-invariant. *)
  let arrival_times =
    let mean = float_of_int horizon /. float_of_int (arrivals + 1) in
    let t = ref 0.0 in
    Array.init arrivals (fun _ ->
        t := !t +. Rng.exponential rng ~mean;
        int_of_float !t)
  in
  let lifetime p =
    let mean = float_of_int p.Descriptor.work_cycles in
    Stdlib.max 1 (int_of_float (Rng.exponential rng ~mean))
  in
  let done_at = ref 0 in
  (* A retiring guest's VCPUs leave the scheduler entirely and its
     domid returns to the pool — churn is what exercises slot reuse. *)
  let on_vm_done domid now_done =
    let slot = Pool.slot host.pool domid in
    for index = 0 to slot.Pool.vcpus - 1 do
      Credit_sched.remove_vcpu host.sched { Credit_sched.dom = domid; index }
    done;
    Pool.retire host.pool domid;
    if now_done > !done_at then done_at := now_done
  in
  let service = slot_service host ~on_vm_done in
  Sim.spawn host.sim ~name:"fleet-churn" (fun () ->
      let admit_one i now =
        let p = Descriptor.profile_of desc i in
        ignore
          (admit host ~profile:p ~profile_idx:i ~now ~work_of:(fun _ ->
               lifetime p))
      in
      for i = 0 to initial - 1 do
        admit_one i 0
      done;
      let next = ref 0 in
      while host.active > 0 || !next < arrivals do
        let now = Cycles.to_int (Sim.current_time ()) in
        while !next < arrivals && arrival_times.(!next) <= now do
          admit_one (initial + !next) now;
          incr next
        done;
        if host.active > 0 then begin
          dispatch host ~service;
          Sim.delay (quantum host)
        end
        else if !next < arrivals then
          Sim.delay (Cycles.of_int (arrival_times.(!next) - now))
      done);
  Sim.run host.sim;
  {
    config = hyp.Hypervisor.name;
    initial_vms = initial;
    arrivals;
    admitted = Pool.admitted host.pool;
    retired = Pool.retired host.pool;
    peak_live = Pool.peak_live host.pool;
    domid_reuses = Pool.reused host.pool;
    drain_ms = to_ms host.machine !done_at;
    switches = Credit_sched.switches host.sched;
  }

(* --- noisy neighbor -------------------------------------------------- *)

type noisy_result = {
  config : string;
  vms : int;
  victim_pcpu_rivals : int; (* aggressor VCPUs sharing the victim's PCPU *)
  completed : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  switches : int;
}

type request = { arrived : int; mutable remaining : int }

let noisy_neighbor ?(seed = 42) ?(requests = 400) ?(load = 0.3)
    (hyp : Hypervisor.t) desc =
  if requests < 1 then invalid_arg "Scenario.noisy_neighbor: requests < 1";
  if load <= 0.0 || load >= 1.0 then
    invalid_arg "Scenario.noisy_neighbor: load outside (0, 1)";
  let host = make_host hyp desc in
  let vms = desc.Descriptor.vms in
  (* The victim's cost per memcached/TCP_RR request and the latency
     outside its VCPU, from the model's I/O profile, so the five
     hypervisors keep their paper-calibrated I/O cost differences. *)
  let service_cycles = Hypervisor.request_service_cycles hyp in
  let fixed = Hypervisor.request_fixed_latency hyp in
  let rng = Rng.create ~seed in
  (* The victim's open-loop arrival stream is drawn before any
     fleet-size-dependent state, so every fleet size sees the same
     request trace — the p99 curve isolates scheduler interference. *)
  let arrival_times =
    let mean = float_of_int service_cycles /. load in
    let t = ref 0.0 in
    Array.init requests (fun _ ->
        t := !t +. Rng.exponential rng ~mean;
        int_of_float !t)
  in
  (* Victim: 1 always-runnable VCPU, admitted first (domid 0, PCPU 0).
     Aggressors: the descriptor mix with effectively infinite CPU-bound
     work, VCPUs placed round-robin over the PCPUs after the victim. *)
  let forever = max_int / 4 in
  let victim_profile =
    { Descriptor.synthetic with Descriptor.name = "victim"; vcpus = 1 }
  in
  let victim_domid =
    admit host ~profile:victim_profile ~profile_idx:0 ~now:0
      ~work_of:(fun _ -> forever)
  in
  for i = 0 to vms - 2 do
    let p = Descriptor.profile_of desc i in
    ignore
      (admit host ~profile:p ~profile_idx:i ~now:0 ~work_of:(fun _ -> forever))
  done;
  (* VCPU placement is round-robin from PCPU 0, so the number of
     aggressor VCPUs sharing the victim's PCPU is a step function of
     fleet size — the monotone axis of the p99 curve. *)
  let rivals = ref 0 in
  let total_aggr_vcpus =
    let n = ref 0 in
    for i = 0 to vms - 2 do
      n := !n + (Descriptor.profile_of desc i).Descriptor.vcpus
    done;
    !n
  in
  for k = 0 to total_aggr_vcpus - 1 do
    if (1 + k) mod host.num_pcpus = 0 then incr rivals
  done;
  let queue = Queue.create () in
  let latencies = ref [] in
  let completed = ref 0 in
  (* The victim VCPU models a polling memcached guest: when scheduled
     it burns its whole quantum, serving whatever requests are queued.
     Always runnable and never credit-favoured, it rotates FIFO with
     its PCPU rivals, so each added rival stretches the gap between
     service windows by one quantum. *)
  let victim_service ~now =
    let budget = ref host.timeslice in
    let into = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      match Queue.peek_opt queue with
      | None -> continue_ := false
      | Some req ->
          let use = Stdlib.min req.remaining !budget in
          req.remaining <- req.remaining - use;
          budget := !budget - use;
          into := !into + use;
          if req.remaining = 0 then begin
            ignore (Queue.pop queue);
            incr completed;
            let done_at = now + !into + fixed in
            latencies :=
              Machine.elapsed_us host.machine
                (Cycles.of_int (done_at - req.arrived))
              :: !latencies
          end;
          if !budget = 0 then continue_ := false
    done;
    host.timeslice
  in
  let service v ~pcpu:_ ~now =
    if v.Credit_sched.dom = victim_domid then victim_service ~now
    else host.timeslice
  in
  Sim.spawn host.sim ~name:"fleet-noisy-neighbor" (fun () ->
      let next = ref 0 in
      while !completed < requests do
        let now = Cycles.to_int (Sim.current_time ()) in
        while !next < requests && arrival_times.(!next) <= now do
          Queue.add
            { arrived = arrival_times.(!next); remaining = service_cycles }
            queue;
          incr next
        done;
        dispatch host ~service;
        Sim.delay (quantum host)
      done);
  Sim.run host.sim;
  let summary = Summary.of_list !latencies in
  {
    config = hyp.Hypervisor.name;
    vms;
    victim_pcpu_rivals = !rivals;
    completed = !completed;
    mean_us = Summary.mean summary;
    p50_us = Summary.median summary;
    p99_us = Summary.percentile summary 99.0;
    switches = Credit_sched.switches host.sched;
  }
