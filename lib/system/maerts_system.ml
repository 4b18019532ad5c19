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
  window_frames : int;
  completion_round_trips : int;
  backend_bound : bool;
}

let mtu = 1500

let run ?(frames = 1500) ?tso_bug (hyp : Hypervisor.t) =
  if frames < 1 then invalid_arg "Maerts_system.run: frames < 1";
  if hyp.Hypervisor.kind = Hypervisor.Native then
    invalid_arg "Maerts_system.run: no paravirtual ring natively";
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  let p = hyp.Hypervisor.io_profile in
  let guest =
    match tso_bug with
    | None -> hyp.Hypervisor.guest
    | Some flag ->
        { hyp.Hypervisor.guest with Kernel_costs.tso_autosizing_bug = flag }
  in
  (* The autosizing window collapses only when the completion loop is
     slow — the same trigger as the analytic model. *)
  let completion_latency =
    p.Io_profile.notify_latency + p.Io_profile.irq_delivery_latency
  in
  let window_frames =
    if completion_latency > 20_000 then Kernel_costs.tx_batch guest ~mtu_packets:42
    else 42
  in
  let op = Machine.op machine in
  let guest_frame_op = op ~lane:Guest Io "maerts_system.guest_frame"
  and kick_op = op Io "maerts_system.kick"
  and backend_frame_op = op Io "maerts_system.backend_frame" in
  let ring = Virtqueue.create ~size:256 () in
  let window = Sim.Resource.create ~name:"tx-window" sim ~capacity:window_frames in
  let backend_inbox : int Sim.Mailbox.t = Sim.Mailbox.create ~name:"backend-inbox" sim in
  let round_trips = ref 0 in
  let finish = ref Cycles.zero in
  (* Guest transmit path: wait for window space, build + post a frame,
     kick if the backend parked. *)
  Sim.spawn sim ~name:"guest-tx" (fun () ->
      for id = 1 to frames do
        Sim.Resource.acquire window;
        Machine.spend guest_frame_op
          ((guest.Kernel_costs.tcp_tx / 42) + p.Io_profile.guest_tx_per_packet);
        Virtqueue.add_avail ring
          { Virtqueue.addr = Addr.ipa_of_page (7000 + (id mod 200)); len = mtu;
            id = id mod 256 };
        if Virtqueue.kick_needed ring then begin
          incr round_trips;
          Machine.spend kick_op (p.Io_profile.kick_guest_cpu / 4)
        end;
        Sim.Mailbox.send backend_inbox id
      done);
  (* Backend: drain the ring, move the data (grant copy for Xen), put it
     on the wire, and complete back to the guest — which reopens the
     window after the interrupt-delivery latency. *)
  Sim.spawn sim ~name:"backend-tx" (fun () ->
      let wire_cycles_per_frame =
        int_of_float
          (float_of_int (mtu * 8) /. 10e9 *. Machine.freq_ghz machine *. 1e9)
      in
      for _ = 1 to frames do
        let _id = Sim.Mailbox.recv backend_inbox in
        let desc =
          match Virtqueue.backend_pop ring with
          | Some d -> d
          | None -> failwith "Maerts_system: ring empty with work queued"
        in
        let work =
          p.Io_profile.backend_cpu_per_packet
          + p.Io_profile.tx_grant_per_packet
          + int_of_float (p.Io_profile.tx_copy_per_byte *. float_of_int mtu)
        in
        Machine.spend backend_frame_op (Stdlib.max work wire_cycles_per_frame);
        Virtqueue.backend_push_used ring ~id:desc.Virtqueue.id ~len:mtu;
        (* Completion interrupt back into the guest opens the window. *)
        Sim.spawn_here ~name:"tx-completion" (fun () ->
            Sim.delay
              (Cycles.of_int (p.Io_profile.irq_delivery_latency / 2));
            (match Virtqueue.guest_reap_used ring with
            | Some _ -> ()
            | None -> ());
            Sim.Resource.release window);
        finish := Sim.current_time ()
      done;
      Virtqueue.backend_park ring);
  Sim.run sim;
  let hz = Machine.freq_ghz machine *. 1e9 in
  let seconds = float_of_int (Cycles.to_int !finish) /. hz in
  let gbps = float_of_int (frames * mtu * 8) /. seconds /. 1e9 in
  let backend_frame_cost =
    p.Io_profile.backend_cpu_per_packet + p.Io_profile.tx_grant_per_packet
    + int_of_float (p.Io_profile.tx_copy_per_byte *. float_of_int mtu)
  in
  let backend_gbps =
    hz /. float_of_int backend_frame_cost *. float_of_int (mtu * 8) /. 1e9
  in
  {
    frames;
    gbps;
    window_frames;
    completion_round_trips = !round_trips;
    backend_bound =
      (let saturation_gbps = 9.0 in
       gbps < backend_gbps *. 1.1 && backend_gbps < saturation_gbps);
  }
