module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Io_profile = Armvirt_hypervisor.Io_profile
module Arch_timer = Armvirt_timer.Arch_timer

type result = {
  config : string;
  tick_hz : int;
  ticks : int;
  cycles_per_tick : int;
  cpu_overhead_pct : float;
}

let run ?(tick_hz = 250) ?(simulated_ms = 100) (hyp : Hypervisor.t) =
  if tick_hz < 1 || simulated_ms < 1 then
    invalid_arg "Timer_tick.run: non-positive parameter";
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  let p = hyp.Hypervisor.io_profile in
  let freq = Machine.freq_ghz machine *. 1e9 in
  let period = Cycles.of_int (int_of_float (freq /. float_of_int tick_hz)) in
  let span_cycles =
    int_of_float (freq *. float_of_int simulated_ms /. 1e3)
  in
  (* The machine's clock may have advanced (e.g. in a sweep reusing it):
     the horizon is relative to this run's start. *)
  let horizon = ref Cycles.zero in
  let ticks = ref 0 in
  let tick_cycles = ref 0 in
  let timer_ref = ref None in
  (* Each expiry: the physical interrupt lands at the hypervisor, which
     injects the virtual timer interrupt; the guest handles and
     completes it, then re-arms for the next period — a clockevent. *)
  let translate = Machine.op machine Irq "timer_tick.translate" in
  let on_expiry () =
    let t0 = Sim.current_time () in
    Machine.spend translate
      (p.Io_profile.irq_delivery_guest_cpu + p.Io_profile.virq_completion);
    incr ticks;
    tick_cycles :=
      !tick_cycles + Cycles.to_int (Cycles.sub (Sim.current_time ()) t0);
    let next = Cycles.add (Sim.current_time ()) period in
    if Cycles.compare next !horizon <= 0 then
      Arch_timer.arm_timer (Option.get !timer_ref) ~deadline:next
  in
  let timer = Arch_timer.create ~on_expiry in
  timer_ref := Some timer;
  Sim.spawn sim ~name:"guest-clockevent" (fun () ->
      let now = Sim.current_time () in
      horizon := Cycles.add now (Cycles.of_int span_cycles);
      Arch_timer.arm_timer timer ~deadline:(Cycles.add now period));
  Sim.run sim;
  let span = float_of_int span_cycles in
  {
    config = hyp.Hypervisor.name;
    tick_hz;
    ticks = !ticks;
    cycles_per_tick = (if !ticks = 0 then 0 else !tick_cycles / !ticks);
    cpu_overhead_pct = float_of_int !tick_cycles /. span *. 100.0;
  }

let sweep hyp ~hz = List.map (fun tick_hz -> run ~tick_hz hyp) hz
