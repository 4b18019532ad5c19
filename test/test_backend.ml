(* Tests for Backend_thread: the vhost/netback worker life cycle,
   batching, parking and cost accounting. *)

module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Cost_model = Armvirt_arch.Cost_model
module Counter = Armvirt_stats.Counter
module H = Armvirt_hypervisor
module Backend_thread = H.Backend_thread
module Platform = Armvirt_core.Platform

let arm_machine () =
  Machine.create (Sim.create ())
    ~cost:(Cost_model.Arm Cost_model.arm_default) ~num_cpus:8

let kvm_profile () =
  (Platform.hypervisor Arm_m400 Kvm).H.Hypervisor.io_profile

let xen_profile () =
  (Platform.hypervisor Arm_m400 Xen).H.Hypervisor.io_profile

let test_lifecycle_and_processing () =
  let machine = arm_machine () in
  let seen = ref [] in
  let backend =
    Backend_thread.create machine ~profile:(kvm_profile ()) ~kind:Vhost
      (fun id -> seen := id :: !seen)
  in
  Backend_thread.start backend;
  Sim.spawn (Machine.sim machine) ~name:"producer" (fun () ->
      Alcotest.(check bool) "initially parked" true
        (Backend_thread.is_parked backend);
      for id = 1 to 10 do
        Backend_thread.submit backend id
      done;
      Sim.delay (Cycles.of_int 1_000_000);
      Backend_thread.shutdown backend);
  Sim.run (Machine.sim machine);
  Alcotest.(check (list int)) "all items, in order" (List.init 10 (fun i -> i + 1))
    (List.rev !seen);
  Alcotest.(check int) "processed count" 10 (Backend_thread.processed backend);
  (* The burst of 10 arrived while the worker was parked once: one
     wakeup, not ten. *)
  Alcotest.(check int) "one wakeup for the burst" 1
    (Backend_thread.wakeups backend)

let test_parking_rearms_notifications () =
  let machine = arm_machine () in
  let backend =
    Backend_thread.create machine ~profile:(kvm_profile ()) ~kind:Vhost (fun _ -> ())
  in
  Backend_thread.start backend;
  Sim.spawn (Machine.sim machine) ~name:"producer" (fun () ->
      Backend_thread.submit backend 1;
      (* Let the worker drain and park... *)
      Sim.delay (Cycles.of_int 100_000);
      Alcotest.(check bool) "parked after draining" true
        (Backend_thread.is_parked backend);
      (* ...so the next submit needs a fresh wakeup. *)
      Backend_thread.submit backend 2;
      Sim.delay (Cycles.of_int 100_000);
      Backend_thread.shutdown backend);
  Sim.run (Machine.sim machine);
  Alcotest.(check int) "two wakeups for two separated items" 2
    (Backend_thread.wakeups backend)

let test_netback_items_cost_more () =
  let run kind profile =
    let machine = arm_machine () in
    let backend = Backend_thread.create machine ~profile ~kind (fun _ -> ()) in
    Backend_thread.start backend;
    Sim.spawn (Machine.sim machine) ~name:"producer" (fun () ->
        for id = 1 to 50 do
          Backend_thread.submit backend id
        done;
        Sim.delay (Cycles.of_int 5_000_000);
        Backend_thread.shutdown backend);
    Sim.run (Machine.sim machine);
    let counters = Machine.counters machine in
    Counter.get counters "vhost.item" + Counter.get counters "netback.item"
  in
  let vhost_cycles =
    run Backend_thread.Vhost (kvm_profile ())
  in
  let netback_cycles =
    run Backend_thread.Netback (xen_profile ())
  in
  (* Grant + copy per item: netback burns several times vhost's cycles
     for the same 50 frames. *)
  Alcotest.(check bool) "netback >> vhost" true
    (netback_cycles > 3 * vhost_cycles)

let test_batch_budget_yields () =
  (* A worker with a tiny budget still processes everything (yielding
     between bursts), it just takes more scheduling rounds. *)
  let machine = arm_machine () in
  let backend =
    Backend_thread.create machine ~profile:(kvm_profile ()) ~kind:Vhost ~batch_budget:2
      (fun _ -> ())
  in
  Backend_thread.start backend;
  Sim.spawn (Machine.sim machine) ~name:"producer" (fun () ->
      for id = 1 to 9 do
        Backend_thread.submit backend id
      done;
      Sim.delay (Cycles.of_int 1_000_000);
      Backend_thread.shutdown backend);
  Sim.run (Machine.sim machine);
  Alcotest.(check int) "all processed" 9 (Backend_thread.processed backend);
  Alcotest.(check int) "peak queue depth seen" 9
    (Backend_thread.max_queue_depth backend)

let test_validation () =
  let machine = arm_machine () in
  Alcotest.check_raises "budget"
    (Invalid_argument "Backend_thread.create: batch budget < 1") (fun () ->
      ignore
        (Backend_thread.create machine ~profile:(kvm_profile ()) ~kind:Vhost ~batch_budget:0
           (fun _ -> ())));
  let backend =
    Backend_thread.create machine ~profile:(kvm_profile ()) ~kind:Vhost (fun _ -> ())
  in
  Backend_thread.start backend;
  Alcotest.check_raises "double start"
    (Invalid_argument "Backend_thread.start: already started") (fun () ->
      Backend_thread.start backend);
  (* Drain the idle worker so the simulation can settle. *)
  Backend_thread.shutdown backend;
  Sim.run (Machine.sim machine)

let () =
  Alcotest.run "backend"
    [
      ( "backend_thread",
        [
          Alcotest.test_case "lifecycle and processing" `Quick
            test_lifecycle_and_processing;
          Alcotest.test_case "parking re-arms notifications" `Quick
            test_parking_rearms_notifications;
          Alcotest.test_case "netback items cost more" `Quick
            test_netback_items_cost_more;
          Alcotest.test_case "batch budget yields" `Quick
            test_batch_budget_yields;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
