module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Io_profile = Armvirt_hypervisor.Io_profile
module Addr = Armvirt_mem.Addr
module Stage2 = Armvirt_mem.Stage2
module Tlb = Armvirt_mem.Tlb

type result = {
  config : string;
  pages : int;
  faults : int;
  warm_faults : int;
  tlb_hit_rate_warm : float;
  per_fault_cycles : int;
  total_ms : float;
}

(* Host-side page allocation + accounting per fault (get_user_pages /
   populate_physmap), identical across hypervisors. *)
let host_alloc_cycles = 1800

let run (hyp : Hypervisor.t) ~pages =
  if pages < 1 then invalid_arg "Coldstart.run: pages < 1";
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  let p = hyp.Hypervisor.io_profile in
  (* The round trip into the hypervisor's fault handler costs what any
     synchronous trap costs that hypervisor (kick_guest_cpu is the
     guest-visible exit+entry pair); native runs fault into its own
     kernel with no transition at all. *)
  let transition = p.Io_profile.kick_guest_cpu in
  let op = Machine.op machine in
  let transition_op = op Stage2 "coldstart.transition"
  and alloc_op = op Stage2 "coldstart.alloc"
  and map_op = op Stage2 "coldstart.map" in
  let stage2 = Stage2.create () in
  let tlb = Tlb.create ~capacity:512 in
  let faults = ref 0 in
  let warm_faults = ref 0 in
  let fault_cycles = ref 0 in
  let touch ~warm page =
    match Tlb.lookup tlb ~ipa_page:page with
    | Some _ -> ()
    | None -> (
        match Stage2.translate_opt stage2 (Addr.ipa_of_page page) with
        | Some pa ->
            Tlb.insert tlb ~ipa_page:page ~pa_page:(Addr.pa_page pa)
        | None ->
            if warm then incr warm_faults else incr faults;
            let t0 = Sim.current_time () in
            Machine.spend transition_op transition;
            Machine.spend alloc_op host_alloc_cycles;
            Machine.spend map_op 420;
            Stage2.map stage2 ~ipa_page:page ~pa_page:(0x40000 + page)
              Stage2.Read_write;
            Tlb.insert tlb ~ipa_page:page ~pa_page:(0x40000 + page);
            fault_cycles :=
              !fault_cycles
              + Cycles.to_int (Cycles.sub (Sim.current_time ()) t0))
  in
  let total = ref Cycles.zero in
  let hit_rate = ref 0.0 in
  Sim.spawn sim ~name:"coldstart" (fun () ->
      let t0 = Sim.current_time () in
      for page = 0 to pages - 1 do
        touch ~warm:false page
      done;
      total := Cycles.sub (Sim.current_time ()) t0;
      let hits_before = Tlb.hits tlb and misses_before = Tlb.misses tlb in
      for page = 0 to pages - 1 do
        touch ~warm:true page
      done;
      let hits = Tlb.hits tlb - hits_before in
      let misses = Tlb.misses tlb - misses_before in
      hit_rate := float_of_int hits /. float_of_int (hits + misses));
  Sim.run sim;
  let freq = Machine.freq_ghz machine *. 1e9 in
  {
    config = hyp.Hypervisor.name;
    pages;
    faults = !faults;
    warm_faults = !warm_faults;
    tlb_hit_rate_warm = !hit_rate;
    per_fault_cycles = (if !faults = 0 then 0 else !fault_cycles / !faults);
    total_ms = float_of_int (Cycles.to_int !total) /. freq *. 1e3;
  }
