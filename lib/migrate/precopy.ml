module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Rng = Armvirt_engine.Rng
module Machine = Armvirt_arch.Machine
module Marker = Armvirt_obs.Marker
module Cost_model = Armvirt_arch.Cost_model
module Stage2 = Armvirt_mem.Stage2
module Dirty_log = Armvirt_mem.Dirty_log
module Link = Armvirt_net.Link
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Migrate_profile = Armvirt_hypervisor.Migrate_profile
module Summary = Armvirt_stats.Summary

type round = {
  index : int;
  pages : int;
  bytes : int;
  duration_us : float;
  wp_faults : int;
  p99_us : float;
}

type result = {
  hyp_name : string;
  transport : string;
  plan : Plan.t;
  rounds : round list;
  precopy_rounds : int;
  total_us : float;
  downtime_us : float;
  final_pages : int;
  pages_sent : int;
  pages_resent : int;
  wp_faults : int;
  converged : bool;
  requests : int;
  baseline_p99_us : float;
  post_p99_us : float;
}

(* Requests flowing from the open-loop arrival process to the guest
   VCPU. [faults] is how many of the request's page writes took a
   dirty-logging fault — the VCPU owes that many fault round trips. *)
type req = Req of { arrival : Cycles.t; faults : int } | Stop

let p99 = function
  | [] -> Float.nan
  | samples -> Summary.percentile (Summary.of_list samples) 99.0

(* The migrating VM's memory: an identity-flavoured stage-2 table with
   one writable mapping per guest page. Page indices double as IPA page
   frames; [Plan.page_kb] only scales byte counts. *)
let build_stage2 plan =
  let s2 = Stage2.create () in
  for i = 0 to plan.Plan.pages - 1 do
    Stage2.map s2 ~ipa_page:i ~pa_page:(0x100000 + i) Stage2.Read_write
  done;
  s2

let run ?(plan = Plan.default) (hyp : Hypervisor.t) =
  Plan.validate plan;
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  let prof = hyp.Hypervisor.migrate in
  let freq_hz = Machine.freq_ghz machine *. 1e9 in
  let page_bytes = Plan.page_bytes plan in
  let us_of c = Machine.elapsed_us machine c in
  let cycles_of_us us = Cycles.of_us ~hz:freq_hz us in
  let spend op cycles = if cycles > 0 then Machine.spend op cycles in
  let op = Machine.op machine in
  let wp_fault_op = op Migrate "migrate.wp_fault"
  and guest_service_op = op ~lane:Guest Migrate "migrate.guest_service"
  and copy_op = op Migrate "migrate.copy"
  and send_op = op Migrate "migrate.send"
  and kick_op = op Migrate "migrate.kick"
  and protect_op = op Migrate "migrate.protect"
  and harvest_op = op Migrate "migrate.harvest"
  and pause_op = op Migrate "migrate.pause"
  and state_op = op Migrate "migrate.state"
  and resume_op = op Migrate "migrate.resume" in
  let mark name =
    Machine.marker machine (Marker.op ~hyp:"migrate" Migrate name)
  in
  let start_mark = mark "start"
  and round_mark = mark "round"
  and round_cap_mark = mark "round_cap"
  and blackout_mark = mark "blackout" in
  (* The migration link as seen from this machine's clock: 2 us of
     propagation (as Link.ten_gbe) and the plan's bandwidth. *)
  let link =
    Link.create sim
      ~propagation:(cycles_of_us 2.0)
      ~cycles_per_byte:
        (Link.cycles_per_byte_of_gbps
           ~freq_ghz:(Machine.freq_ghz machine)
           plan.Plan.bandwidth_gbps)
  in
  let dlog = Dirty_log.create (build_stage2 plan) in
  (* Shared state between the guest processes and the migration thread.
     [round_ref] tags completed requests with the pre-copy round they
     finished in: -1 = warmup baseline, [precopy_rounds] = blackout
     backlog and post-resume tail. *)
  let round_ref = ref (-1) in
  let paused = ref false in
  let resume_sig = Sim.Signal.create sim in
  let finished = ref false in
  let stop_at = ref Cycles.zero in
  let latencies : (int, float list ref) Hashtbl.t = Hashtbl.create 16 in
  let requests = ref 0 in
  let record_latency us =
    let bucket =
      match Hashtbl.find_opt latencies !round_ref with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.replace latencies !round_ref l;
          l
    in
    bucket := us :: !bucket;
    incr requests
  in
  let round_latencies idx =
    match Hashtbl.find_opt latencies idx with
    | Some l -> List.rev !l
    | None -> []
  in

  (* --- Guest: open-loop arrivals + a single-queue VCPU server. --- *)
  let mailbox = Sim.Mailbox.create ~name:"migrate-guest-queue" sim in
  let rng = Rng.create ~seed:plan.Plan.seed in
  let cold_span = plan.Plan.pages - plan.Plan.hot_pages in
  let pick_page () =
    if
      cold_span = 0
      || (plan.Plan.hot_pages > 0
         && Rng.float rng ~bound:1.0 < plan.Plan.hot_fraction)
    then Rng.int rng ~bound:plan.Plan.hot_pages
    else plan.Plan.hot_pages + Rng.int rng ~bound:cold_span
  in
  let interval =
    if plan.Plan.txn_rate_hz <= 0.0 then 0
    else Stdlib.max 1 (int_of_float (Float.round (freq_hz /. plan.Plan.txn_rate_hz)))
  in
  if interval > 0 then begin
    Sim.spawn sim ~name:"migrate-arrivals" (fun () ->
        let rec loop () =
          if
            !finished
            && Cycles.compare (Sim.current_time ()) !stop_at >= 0
          then Sim.Mailbox.send mailbox Stop
          else begin
            Sim.delay (Cycles.of_int interval);
            (* The request payload lands in guest memory on arrival
               (DMA), dirtying pages whether or not the VCPU has caught
               up. While the VM is paused for stop-and-copy nothing is
               delivered into its memory — the traffic queues and the
               writes happen on the destination. *)
            let faults = ref 0 in
            if not !paused then
              for _ = 1 to plan.Plan.writes_per_txn do
                match Dirty_log.write dlog ~ipa_page:(pick_page ()) with
                | `Wp_fault -> incr faults
                | `Clean_hit -> ()
              done;
            Sim.Mailbox.send mailbox
              (Req { arrival = Sim.current_time (); faults = !faults });
            loop ()
          end
        in
        loop ());
    Sim.spawn sim ~name:"migrate-guest-vcpu" (fun () ->
        let rec loop () =
          match Sim.Mailbox.recv mailbox with
          | Stop -> ()
          | Req { arrival; faults } ->
              while !paused do
                Sim.Signal.wait resume_sig
              done;
              if faults > 0 then
                spend wp_fault_op
                  (faults * prof.Migrate_profile.wp_fault_guest_cpu);
              spend guest_service_op plan.Plan.service_cycles;
              record_latency
                (us_of (Cycles.sub (Sim.current_time ()) arrival));
              loop ()
        in
        loop ())
  end;

  (* --- Migration thread. --- *)
  let rounds_acc = ref [] in
  let pages_sent = ref 0 in
  let final_pages = ref 0 in
  let converged = ref false in
  let total_us_ref = ref 0.0 in
  let downtime_us_ref = ref 0.0 in
  let precopy_rounds = ref 0 in
  (* Ship one batch of pages: harvest-side CPU was already charged; pay
     the staging copy, the transport bookkeeping and the doorbell, then
     stream the bytes in wire-FIFO order. *)
  let ship_batch n =
    let bytes = n * page_bytes in
    spend copy_op
      (Cost_model.copy_cost ~per_byte:prof.Migrate_profile.page_copy_per_byte
         ~bytes);
    spend send_op (n * prof.Migrate_profile.page_send_per_page);
    spend kick_op prof.Migrate_profile.batch_kick;
    ignore (Link.send_bulk link ~bytes)
  in
  let ship_pages n =
    let rec go remaining =
      if remaining > 0 then begin
        let b = Stdlib.min plan.Plan.batch_pages remaining in
        ship_batch b;
        go (remaining - b)
      end
    in
    go n;
    pages_sent := !pages_sent + n
  in
  (* Would stopping now meet the downtime SLO? Blackout = pause all
     VCPUs + harvest/copy/send the residual set + device state + wire +
     resume. *)
  let projected_blackout_us dirty =
    let batches = (dirty + plan.Plan.batch_pages - 1) / plan.Plan.batch_pages in
    let cpu =
      (plan.Plan.vcpus
      * (prof.Migrate_profile.pause_vcpu + prof.Migrate_profile.resume_vcpu))
      + prof.Migrate_profile.state_transfer
      + (dirty * Migrate_profile.blackout_page_cpu prof ~page_bytes)
      + (batches * prof.Migrate_profile.batch_kick)
    in
    us_of
      (Cycles.add (Cycles.of_int cpu)
         (Link.transfer_time link ~bytes:(dirty * page_bytes)))
  in
  Sim.spawn sim ~name:"migrate-thread" (fun () ->
      if plan.Plan.warmup_us > 0.0 then
        Sim.delay (cycles_of_us plan.Plan.warmup_us);
      let start = Sim.current_time () in
      Machine.count start_mark;
      (* Everything from here on is round 0: the initial protect pass
         already makes the guest fault, and those requests must not
         land in the idle-baseline bucket. *)
      round_ref := 0;
      (* Enable dirty logging: one pass write-protecting every guest
         page, same per-page machinery as the per-round re-arm. *)
      Dirty_log.start dlog;
      spend protect_op
        (plan.Plan.pages * prof.Migrate_profile.harvest_per_page);
      let rec precopy r to_send =
        round_ref := r;
        Machine.count round_mark;
        let round_start = Sim.current_time () in
        let faults_before = Dirty_log.wp_faults dlog in
        ship_pages to_send;
        let duration = Cycles.sub (Sim.current_time ()) round_start in
        rounds_acc :=
          {
            index = r;
            pages = to_send;
            bytes = to_send * page_bytes;
            duration_us = us_of duration;
            wp_faults = Dirty_log.wp_faults dlog - faults_before;
            p99_us = Float.nan (* filled in after the run *);
          }
          :: !rounds_acc;
        let dirty = Dirty_log.dirty_count dlog in
        if projected_blackout_us dirty <= plan.Plan.downtime_target_us then begin
          converged := true;
          r + 1
        end
        else if r + 1 >= plan.Plan.max_rounds then begin
          converged := false;
          Machine.count round_cap_mark;
          r + 1
        end
        else begin
          let pages = Dirty_log.harvest dlog in
          let n = List.length pages in
          spend harvest_op (n * prof.Migrate_profile.harvest_per_page);
          precopy (r + 1) n
        end
      in
      let n_rounds = precopy 0 plan.Plan.pages in
      precopy_rounds := n_rounds;
      round_ref := n_rounds;
      (* Stop-and-copy: blackout begins. *)
      let pause_start = Sim.current_time () in
      paused := true;
      Machine.count blackout_mark;
      spend pause_op (plan.Plan.vcpus * prof.Migrate_profile.pause_vcpu);
      let residual = Dirty_log.harvest dlog in
      let n = List.length residual in
      final_pages := n;
      spend harvest_op (n * prof.Migrate_profile.harvest_per_page);
      ship_pages n;
      spend state_op prof.Migrate_profile.state_transfer;
      spend resume_op (plan.Plan.vcpus * prof.Migrate_profile.resume_vcpu);
      Dirty_log.stop dlog;
      let now = Sim.current_time () in
      downtime_us_ref := us_of (Cycles.sub now pause_start);
      total_us_ref := us_of (Cycles.sub now start);
      paused := false;
      Sim.Signal.notify resume_sig;
      finished := true;
      stop_at := Cycles.add now (cycles_of_us plan.Plan.tail_us));
  Sim.run sim;
  let rounds =
    List.rev_map
      (fun r -> { r with p99_us = p99 (round_latencies r.index) })
      !rounds_acc
  in
  {
    hyp_name = hyp.Hypervisor.name;
    transport = prof.Migrate_profile.transport;
    plan;
    rounds;
    precopy_rounds = !precopy_rounds;
    total_us = !total_us_ref;
    downtime_us = !downtime_us_ref;
    final_pages = !final_pages;
    pages_sent = !pages_sent;
    pages_resent = !pages_sent - plan.Plan.pages;
    wp_faults = Dirty_log.wp_faults dlog;
    converged = !converged;
    requests = !requests;
    baseline_p99_us = p99 (round_latencies (-1));
    post_p99_us = p99 (round_latencies !precopy_rounds);
  }
