module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Io_profile = Armvirt_hypervisor.Io_profile
module Kernel_costs = Armvirt_guest.Kernel_costs
module Virtqueue = Armvirt_io.Virtqueue
module Addr = Armvirt_mem.Addr

type result = {
  frames : int;
  gbps : float;
  interrupts : int;
  suppression_ratio : float;
  ring_full_stalls : int;
}

let mtu = 1500

let run ?(frames = 2000) (hyp : Hypervisor.t) =
  if frames < 1 then invalid_arg "Stream_system.run: frames < 1";
  if hyp.Hypervisor.kind = Hypervisor.Native then
    invalid_arg "Stream_system.run: no paravirtual ring natively";
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  let p = hyp.Hypervisor.io_profile in
  let g = hyp.Hypervisor.guest in
  let op = Machine.op machine in
  let guest_frame = op ~lane:Guest Io "stream_system.guest_frame"
  and backend_frame = op Io "stream_system.backend_frame"
  and irq_delivery = op Irq "stream_system.irq_delivery" in
  (* One receive virtqueue models either transport's ring here: the
     batching protocol (backend-live window) is identical; the per-frame
     costs differ through the profile. *)
  let ring = Virtqueue.create ~size:256 () in
  let guest_wakeup = Sim.Signal.create sim in
  let ring_space = Sim.Signal.create sim in
  let interrupts = ref 0 in
  let ring_full_stalls = ref 0 in
  let delivered = ref 0 in
  let finish_time = ref Cycles.zero in
  let next_buffer = ref 0 in
  let post_buffers n =
    for _ = 1 to n do
      (match
         Virtqueue.add_avail ring
           { Virtqueue.addr = Addr.ipa_of_page !next_buffer; len = mtu;
             id = !next_buffer mod 256 }
       with
      | () -> ()
      | exception Virtqueue.Ring_full -> ());
      incr next_buffer
    done
  in
  (* Guest: drain completions in batches; one interrupt wakes a whole
     NAPI poll, and the poll lingers briefly before re-enabling the
     interrupt — Linux NAPI's re-poll that makes suppression work. *)
  let napi_linger = Cycles.of_int 6_000 in
  Sim.spawn sim ~name:"guest-napi" (fun () ->
      let processed = ref 0 in
      let reap_with_linger () =
        match Virtqueue.guest_reap_used ring with
        | Some _ as hit -> hit
        | None ->
            Sim.delay napi_linger;
            Virtqueue.guest_reap_used ring
      in
      while !processed < frames do
        (match reap_with_linger () with
        | Some _ ->
            incr processed;
            Machine.spend guest_frame
              ((g.Kernel_costs.softirq_rx + g.Kernel_costs.tcp_rx) / 42
              + p.Io_profile.guest_rx_per_packet);
            post_buffers 1;
            Sim.Signal.notify ring_space
        | None ->
            if !processed < frames then
              (* Park and wait for the next interrupt. *)
              Sim.Signal.wait guest_wakeup)
      done;
      finish_time := Sim.current_time ());
  (* Backend: frames arrive back-to-back at wire pace; each is moved
     into a posted guest buffer; the interrupt fires only when the
     guest is parked (suppression). *)
  Sim.spawn sim ~name:"backend" (fun () ->
      let wire_cycles_per_frame =
        int_of_float
          (float_of_int (mtu * 8) /. 10e9 *. Machine.freq_ghz machine *. 1e9)
      in
      for _ = 1 to frames do
        (* Wire pacing and backend processing overlap; charge the max. *)
        let work =
          p.Io_profile.backend_cpu_per_packet
          + p.Io_profile.rx_grant_per_packet
          + int_of_float (p.Io_profile.rx_copy_per_byte *. float_of_int mtu)
        in
        Machine.spend backend_frame (Stdlib.max work wire_cycles_per_frame);
        let rec take_buffer () =
          match Virtqueue.backend_pop ring with
          | Some desc -> desc
          | None ->
              incr ring_full_stalls;
              Sim.Signal.wait ring_space;
              take_buffer ()
        in
        let desc = take_buffer () in
        Virtqueue.backend_push_used ring ~id:desc.Virtqueue.id ~len:mtu;
        incr delivered;
        (* Interrupt only if the guest parked since our last one. *)
        if Sim.Signal.waiters guest_wakeup > 0 then begin
          incr interrupts;
          Machine.spend irq_delivery
            (p.Io_profile.irq_delivery_guest_cpu / 4);
          Sim.Signal.notify guest_wakeup
        end
      done;
      Virtqueue.backend_park ring);
  post_buffers 64;
  Sim.run sim;
  let elapsed = Cycles.to_int !finish_time in
  let hz = Machine.freq_ghz machine *. 1e9 in
  let seconds = float_of_int elapsed /. hz in
  {
    frames = !delivered;
    gbps = float_of_int (!delivered * mtu * 8) /. seconds /. 1e9;
    interrupts = !interrupts;
    suppression_ratio =
      float_of_int !delivered /. float_of_int (Stdlib.max 1 !interrupts);
    ring_full_stalls = !ring_full_stalls;
  }
