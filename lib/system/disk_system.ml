module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Io_profile = Armvirt_hypervisor.Io_profile
module Kernel_costs = Armvirt_guest.Kernel_costs
module Backend_thread = Armvirt_hypervisor.Backend_thread
module Xen_ring = Armvirt_io.Xen_ring
module Virtqueue = Armvirt_io.Virtqueue
module Grant_table = Armvirt_mem.Grant_table
module Blk_device = Armvirt_io.Blk_device
module Addr = Armvirt_mem.Addr

type result = {
  requests : int;
  mean_latency_us : float;
  backend_wakeups : int;
  ring_traffic : int;
}

(* Queue-depth-1 4 KB random reads, end to end: guest block layer →
   ring (+ grants for Xen) → backend worker → device → completion
   interrupt → guest. *)
let run ?(requests = 64) (hyp : Hypervisor.t) ~device =
  if requests < 1 then invalid_arg "Disk_system.run: requests < 1";
  if hyp.Hypervisor.kind = Hypervisor.Native then
    invalid_arg "Disk_system.run: no paravirtual ring natively";
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  let p = hyp.Hypervisor.io_profile in
  let g = hyp.Hypervisor.guest in
  let freq_ghz = Machine.freq_ghz machine in
  let op = Machine.op machine in
  let irq_delivery_op = op Irq "disk_system.irq_delivery"
  and guest_blk_op = op ~lane:Guest Io "disk_system.guest_blk"
  and kick_op = op Io "disk_system.kick"
  and completion_op = op Other "disk_system.completion" in
  let zero_copy = p.Io_profile.zero_copy in
  let vq = Virtqueue.create () in
  let ring = Xen_ring.create () in
  let grants = Grant_table.create () in
  let completion = Sim.Signal.create sim in
  let device_cycles =
    Blk_device.service_cycles device ~freq_ghz ~bytes:4096 ~write:false
  in
  (* The backend worker performs the device access for each request and
     raises the completion interrupt. *)
  let backend_handle id =
    if zero_copy then begin
      let desc = Option.get (Virtqueue.backend_pop vq) in
      Sim.delay (Cycles.of_int device_cycles);
      Virtqueue.backend_push_used vq ~id:desc.Virtqueue.id ~len:4096
    end
    else begin
      let req = Option.get (Xen_ring.backend_pop ring) in
      let _page = Grant_table.map grants req.Xen_ring.gref ~by:0 in
      Sim.delay (Cycles.of_int device_cycles);
      Grant_table.unmap grants req.Xen_ring.gref ~by:0;
      Xen_ring.backend_respond ring { Xen_ring.id = req.Xen_ring.id; status = 0 }
    end;
    ignore id;
    Machine.spend irq_delivery_op p.Io_profile.irq_delivery_latency;
    Sim.Signal.notify completion
  in
  let backend =
    Backend_thread.create machine ~profile:p
      ~kind:(if zero_copy then Backend_thread.Vhost else Backend_thread.Netback)
      backend_handle
  in
  Backend_thread.start backend;
  let latencies = ref [] in
  Sim.spawn sim ~name:"guest-fio" (fun () ->
      for id = 1 to requests do
        let t0 = Sim.current_time () in
        Machine.spend guest_blk_op
          (g.Kernel_costs.syscall + g.Kernel_costs.driver_tx);
        (if zero_copy then
           Virtqueue.add_avail vq
             { Virtqueue.addr = Addr.ipa_of_page (100 + (id mod 128));
               len = 4096; id = id mod 256 }
         else begin
           let gref =
             Grant_table.grant grants ~to_dom:0
               ~ipa_page:(100 + (id mod 128))
               Grant_table.Full
           in
           Xen_ring.frontend_push ring
             { Xen_ring.gref; len = 4096; id = id mod 256 }
         end);
        Machine.spend kick_op p.Io_profile.kick_guest_cpu;
        Backend_thread.submit backend id;
        Sim.Signal.wait completion;
        (* Reap the completion. *)
        (if zero_copy then ignore (Virtqueue.guest_reap_used vq)
         else ignore (Xen_ring.frontend_reap ring));
        Machine.spend completion_op
          (g.Kernel_costs.irq_top_half + p.Io_profile.virq_completion);
        latencies :=
          Machine.elapsed_us machine (Cycles.sub (Sim.current_time ()) t0)
          :: !latencies
      done;
      Backend_thread.shutdown backend);
  Sim.run sim;
  let n = List.length !latencies in
  {
    requests = n;
    mean_latency_us = List.fold_left ( +. ) 0.0 !latencies /. float_of_int n;
    backend_wakeups = Backend_thread.wakeups backend;
    ring_traffic = requests;
  }
