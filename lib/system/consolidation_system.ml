module Sim = Armvirt_engine.Sim
module Cycles = Armvirt_engine.Cycles
module Machine = Armvirt_arch.Machine
module Hypervisor = Armvirt_hypervisor.Hypervisor
module Io_profile = Armvirt_hypervisor.Io_profile
module Backend_thread = Armvirt_hypervisor.Backend_thread

type result = {
  vms : int;
  requests_per_vm : int;
  makespan_ms : float;
  per_vm_throughput : float list;
  fairness : float;
  backend_workers : int;
}

(* Guest-side production interval per request: the VM does some work
   before each submission, so producers interleave realistically. *)
let produce_interval = 8_000

let jain values =
  let n = float_of_int (List.length values) in
  let sum = List.fold_left ( +. ) 0.0 values in
  let sum_sq = List.fold_left (fun acc v -> acc +. (v *. v)) 0.0 values in
  if sum_sq = 0.0 then 1.0 else sum *. sum /. (n *. sum_sq)

let run ?(vms = 4) ?(requests_per_vm = 200) (hyp : Hypervisor.t) =
  if vms < 1 || requests_per_vm < 1 then
    invalid_arg "Consolidation_system.run: non-positive parameter";
  if hyp.Hypervisor.kind = Hypervisor.Native then
    invalid_arg "Consolidation_system.run: nothing to consolidate natively";
  let machine = hyp.Hypervisor.machine in
  let sim = Machine.sim machine in
  let p = hyp.Hypervisor.io_profile in
  let zero_copy = p.Io_profile.zero_copy in
  let finish_times = Array.make vms Cycles.zero in
  let completed = Array.make vms 0 in
  let finished_vms = ref 0 in
  let all_done = Sim.Signal.create sim in
  (* One worker per VM for vhost; one shared worker for netback. *)
  let make_worker () =
    let backend =
      Backend_thread.create machine ~profile:p
        ~kind:(if zero_copy then Backend_thread.Vhost else Backend_thread.Netback)
        (fun item ->
          let vm = item / 1_000_000 in
          completed.(vm) <- completed.(vm) + 1;
          if completed.(vm) = requests_per_vm then begin
            finish_times.(vm) <- Sim.current_time ();
            incr finished_vms;
            if !finished_vms = vms then Sim.Signal.notify all_done
          end)
    in
    Backend_thread.start backend;
    backend
  in
  let workers =
    if zero_copy then Array.init vms (fun _ -> make_worker ())
    else Array.make 1 (make_worker ())
  in
  let backend_workers = Array.length workers in
  for vm = 0 to vms - 1 do
    let worker = workers.(vm mod backend_workers) in
    Sim.spawn sim ~name:(Printf.sprintf "vm%d-producer" vm) (fun () ->
        for req = 1 to requests_per_vm do
          Sim.delay (Cycles.of_int produce_interval);
          Backend_thread.submit worker ((vm * 1_000_000) + req)
        done)
  done;
  (* Shut the workers down once every VM's stream completes. *)
  Sim.spawn sim ~name:"reaper" (fun () ->
      Sim.Signal.wait all_done;
      Array.iter Backend_thread.shutdown workers);
  Sim.run sim;
  let hz = Machine.freq_ghz machine *. 1e9 in
  let ms_of c = float_of_int (Cycles.to_int c) /. hz *. 1e3 in
  let makespan_ms =
    Array.fold_left (fun acc t -> Float.max acc (ms_of t)) 0.0 finish_times
  in
  let per_vm_throughput =
    Array.to_list finish_times
    |> List.map (fun t -> float_of_int requests_per_vm /. ms_of t)
  in
  {
    vms;
    requests_per_vm;
    makespan_ms;
    per_vm_throughput;
    fairness = jain per_vm_throughput;
    backend_workers;
  }
