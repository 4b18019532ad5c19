(* Model-based property tests: random operation sequences driven against
   a component and an independent reference model, checking agreement
   (or a global invariant) after every step. These complement the
   example-based suites by searching the state space. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- Distributor vs a naive reference ---------------------------------- *)

module Distributor = Armvirt_gic.Distributor

(* Reference: SGIs 1..4 sent to CPU 0, plain sets. *)
module Dist_model = struct
  type t = {
    enabled : (int, unit) Hashtbl.t;
    pending : (int, unit) Hashtbl.t;
    active : (int, unit) Hashtbl.t;
  }

  let create () =
    {
      enabled = Hashtbl.create 8;
      pending = Hashtbl.create 8;
      active = Hashtbl.create 8;
    }

  let enable m irq = Hashtbl.replace m.enabled irq ()
  let raise_irq m irq = Hashtbl.replace m.pending irq ()

  let acknowledge m =
    (* Equal priorities: lowest pending+enabled id wins. *)
    let best =
      Hashtbl.fold
        (fun irq () acc ->
          if Hashtbl.mem m.enabled irq then
            match acc with
            | Some b when b <= irq -> acc
            | _ -> Some irq
          else acc)
        m.pending None
    in
    (match best with
    | Some irq ->
        Hashtbl.remove m.pending irq;
        Hashtbl.replace m.active irq ()
    | None -> ());
    best

  let eoi m irq =
    if Hashtbl.mem m.active irq then begin
      Hashtbl.remove m.active irq;
      true
    end
    else false
end

type dist_op = Enable of int | Raise of int | Ack | Eoi of int

let dist_op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Enable (1 + i)) (int_bound 3);
        map (fun i -> Raise (1 + i)) (int_bound 3);
        return Ack;
        map (fun i -> Eoi (1 + i)) (int_bound 3);
      ])

let dist_op_print = function
  | Enable i -> Printf.sprintf "Enable %d" i
  | Raise i -> Printf.sprintf "Raise %d" i
  | Ack -> "Ack"
  | Eoi i -> Printf.sprintf "Eoi %d" i

let prop_distributor_matches_model =
  QCheck.Test.make ~name:"distributor agrees with reference model" ~count:300
    (QCheck.make ~print:QCheck.Print.(list dist_op_print) (QCheck.Gen.list dist_op_gen))
    (fun ops ->
      let d = Distributor.create ~num_cpus:1 in
      let m = Dist_model.create () in
      List.for_all
        (fun op ->
          match op with
          | Enable irq ->
              Distributor.enable d irq;
              Dist_model.enable m irq;
              true
          | Raise irq ->
              (* Re-raising while active is allowed in both; the model
                 folds active+pending into plain pending-again. *)
              if Distributor.state d irq ~cpu:0 = Distributor.Active then true
              else begin
                Distributor.send_sgi d irq ~from:0 ~targets:[ 0 ];
                Dist_model.raise_irq m irq;
                true
              end
          | Ack -> Distributor.acknowledge d ~cpu:0 = Dist_model.acknowledge m
          | Eoi irq -> (
              let model_ok = Dist_model.eoi m irq in
              match Distributor.end_of_interrupt d irq ~cpu:0 with
              | () -> model_ok
              | exception Invalid_argument _ -> not model_ok))
        ops)

(* --- Credit scheduler: work conservation -------------------------------- *)

module Credit_sched = Armvirt_hypervisor.Credit_sched

let prop_sched_work_conserving =
  QCheck.Test.make ~name:"credit scheduler is work conserving" ~count:100
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 6) (int_range 1 20_000))
        (int_range 1 4))
    (fun (work_items, pcpus) ->
      let sched = Credit_sched.create ~num_pcpus:pcpus ~timeslice_cycles:1000 in
      let work =
        List.mapi
          (fun i cycles ->
            let vcpu = { Credit_sched.dom = i; index = 0 } in
            Credit_sched.add_vcpu sched vcpu ~affinity:(i mod pcpus);
            (vcpu, cycles))
          work_items
      in
      let makespan, _ = Credit_sched.run_to_completion sched ~work ~switch_cost:0 in
      (* With free switches, the makespan is exactly the busiest PCPU's
         assigned work: nothing idles while work is runnable. *)
      let per_pcpu = Array.make pcpus 0 in
      List.iteri
        (fun i cycles -> per_pcpu.(i mod pcpus) <- per_pcpu.(i mod pcpus) + cycles)
        work_items;
      makespan = Array.fold_left Stdlib.max 0 per_pcpu)

let prop_sched_no_phantom_credit =
  QCheck.Test.make ~name:"charging never runs an unrunnable vcpu" ~count:100
    QCheck.(list (int_bound 2))
    (fun ops ->
      let sched = Credit_sched.create ~num_pcpus:1 ~timeslice_cycles:100 in
      let vcpu = { Credit_sched.dom = 0; index = 0 } in
      Credit_sched.add_vcpu sched vcpu ~affinity:0;
      List.for_all
        (fun op ->
          match op with
          | 0 ->
              Credit_sched.set_runnable sched vcpu true;
              true
          | 1 ->
              Credit_sched.set_runnable sched vcpu false;
              true
          | _ -> (
              match Credit_sched.pick sched ~pcpu:0 with
              | Some v -> v = vcpu
              | None -> true))
        ops)

(* --- El2_state: no legal sequence corrupts the invariants ---------------- *)

module El2_state = Armvirt_arch.El2_state

type el2_op = Trap | LoadHost | LoadVm of int | Arm_feat | Disarm | RunHost | EnterVm of int

let el2_gen =
  QCheck.Gen.(
    oneof
      [
        return Trap;
        return LoadHost;
        map (fun d -> LoadVm d) (int_bound 2);
        return Arm_feat;
        return Disarm;
        return RunHost;
        map (fun d -> EnterVm d) (int_bound 2);
      ])

let prop_el2_invariant =
  QCheck.Test.make
    ~name:"split-mode invariant: a running VM always has stage-2 armed"
    ~count:500
    (QCheck.make
       ~print:
         QCheck.Print.(
           list (function
             | Trap -> "Trap"
             | LoadHost -> "LoadHost"
             | LoadVm d -> Printf.sprintf "LoadVm %d" d
             | Arm_feat -> "Arm"
             | Disarm -> "Disarm"
             | RunHost -> "RunHost"
             | EnterVm d -> Printf.sprintf "EnterVm %d" d))
       (QCheck.Gen.list el2_gen))
    (fun ops ->
      let w = El2_state.create El2_state.Split_mode in
      List.for_all
        (fun op ->
          (* Apply the op; illegal ones must raise and change nothing
             observable. Either way the global invariant holds. *)
          (try
             match op with
             | Trap -> El2_state.exit_to_el2 w
             | LoadHost -> El2_state.load_el1 w El2_state.Host
             | LoadVm d -> El2_state.load_el1 w (El2_state.Vm d)
             | Arm_feat -> El2_state.enable_virtualization w
             | Disarm -> El2_state.disable_virtualization w
             | RunHost -> El2_state.run_host w
             | EnterVm d -> El2_state.enter_vm w ~domid:d
           with El2_state.Invalid_transition _ -> ());
          match El2_state.running_vm w with
          | Some d ->
              El2_state.stage2_enabled w
              && El2_state.traps_enabled w
              && El2_state.el1_owner w = El2_state.Vm d
          | None -> true)
        ops)

let () =
  Alcotest.run "model_based"
    [
      ("distributor", [ qcheck prop_distributor_matches_model ]);
      ( "credit_sched",
        [ qcheck prop_sched_work_conserving; qcheck prop_sched_no_phantom_credit ]
      );
      ("el2_state", [ qcheck prop_el2_invariant ]);
    ]
