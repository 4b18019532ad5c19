module Sim = Armvirt_engine.Sim
module Machine = Armvirt_arch.Machine
module Cost_model = Armvirt_arch.Cost_model
module Reg_class = Armvirt_arch.Reg_class
module Arm_ops = Armvirt_arch.Arm_ops
module Span = Armvirt_obs.Span
module Tracer = Armvirt_obs.Tracer
module Accounting = Armvirt_obs.Accounting
module Table = Armvirt_obs.Table
module H = Armvirt_hypervisor

let of_session () =
  Accounting.of_rows
    (List.concat_map (fun (c : Observe.cell) -> c.rows) (Observe.cells ()))

type check = {
  model : string;
  name : string;
  measured : float;
  expected : float;
  tolerance_pct : float;
}

let check_ok c =
  if c.expected = 0.0 then c.measured = 0.0
  else
    100.0 *. Float.abs (c.measured -. c.expected) /. Float.abs c.expected
    <= c.tolerance_pct

(* --- model runs ----------------------------------------------------- *)

(* A private tracer and pairing wired straight to the machine, bypassing
   the global Observe session: the crosscheck must work (and give the
   same answer) whether or not a session is active. Counts come from the
   machine's counters, the spans only feed the Table III means. *)
let traced_run ~label hyp f =
  let m = hyp.H.Hypervisor.machine in
  let tracer = Tracer.create () and pairing = Accounting.pairing () in
  Machine.attach m (Some (Observe.machine_sink ~pairing ~track:"cpu" tracer));
  let sim = Machine.sim m in
  Sim.spawn sim ~name:"stat-crosscheck" (fun () -> f hyp);
  Sim.run sim;
  let rows =
    Accounting.rows ~cell:label ~machine:"m0" ~markers:(Machine.markers m)
      ~ops:(Machine.op_cycles m) pairing
  in
  match rows with
  | [ vm ] -> (vm, Tracer.events tracer)
  | vms ->
      (* One machine, one hypervisor per crosscheck run. *)
      failwith
        (Printf.sprintf "Stat_report.crosscheck: %d accounting rows"
           (List.length vms))

let full_suite ~iterations (hyp : H.Hypervisor.t) =
  for _ = 1 to iterations do
    hyp.H.Hypervisor.hypercall ();
    hyp.H.Hypervisor.interrupt_controller_trap ();
    ignore (hyp.H.Hypervisor.virtual_ipi ());
    hyp.H.Hypervisor.virtual_irq_completion ();
    hyp.H.Hypervisor.vm_switch ();
    ignore (hyp.H.Hypervisor.io_latency_out ());
    ignore (hyp.H.Hypervisor.io_latency_in ())
  done

let hypercall_only ~iterations (hyp : H.Hypervisor.t) =
  for _ = 1 to iterations do
    hyp.H.Hypervisor.hypercall ()
  done

(* --- analytic expectations ----------------------------------------- *)

(* Structural exit mix of one full Table I iteration, derived from the
   marked transitions in each model (see the per-path comments in
   lib/hypervisor/). A deterministic simulator makes these exact. *)
type mix = { hvc : int; dabt : int; irq : int; entries : int }

(* The expected hypercall exit->entry marker distance is the model's own
   [Hypervisor.hypercall_exit_entry]: every cycle spent between the exit
   marker (fired as the trap is decoded) and the entry marker (fired
   after the world is restored), summed from the path costs its I/O and
   migration profiles use. The guest-side issue cost falls outside the
   marker pair; adding it back gives the quantity Table II reports. *)
type model_expect = {
  label : string;
  platform : Platform.t;
  hyp_id : Platform.hyp_id;
  mix : mix;
  guest_issue : int;
  paper_hypercall : int option;  (** Paper_data.table2, when measured. *)
}

let arm = Cost_model.arm_default
let arm_vhe = Cost_model.arm_vhe
let x86 = Cost_model.x86_default

let paper_hypercall quad_field =
  match List.assoc_opt "Hypercall" Paper_data.table2 with
  | None -> None
  | Some q -> Some (quad_field q)

let models =
  [
    {
      label = "KVM ARM (VHE)";
      platform = Platform.Arm_m400_vhe;
      hyp_id = Platform.Kvm;
      (* hypercall hvc; ict/vipi-send/io-out MMIO aborts; vm_switch and
         vipi-receive IRQs; every exit re-enters, io_in adds one more. *)
      mix = { hvc = 1; dabt = 3; irq = 2; entries = 7 };
      guest_issue = arm_vhe.Cost_model.hvc_issue;
      paper_hypercall = None (* the paper had no VHE hardware *);
    };
    {
      label = "KVM ARM";
      platform = Platform.Arm_m400;
      hyp_id = Platform.Kvm;
      mix = { hvc = 1; dabt = 3; irq = 2; entries = 7 };
      guest_issue = arm.Cost_model.hvc_issue;
      paper_hypercall = paper_hypercall (fun q -> q.Paper_data.kvm_arm);
    };
    {
      label = "Xen ARM";
      platform = Platform.Arm_m400;
      hyp_id = Platform.Xen;
      (* hvc: hypercall + both I/O event-channel sends; dabt: ict +
         vipi-send; irq: vm_switch, vipi-receive and both event-channel
         IPIs landing in EL2. io_out's DomU trap never re-enters. *)
      mix = { hvc = 3; dabt = 2; irq = 4; entries = 8 };
      guest_issue = arm.Cost_model.hvc_issue;
      paper_hypercall = paper_hypercall (fun q -> q.Paper_data.xen_arm);
    };
    {
      label = "KVM x86";
      platform = Platform.X86_r320;
      hyp_id = Platform.Kvm;
      (* dabt: ict, non-vAPIC EOI, vipi-send (ICR) and virtqueue kick. *)
      mix = { hvc = 1; dabt = 4; irq = 2; entries = 8 };
      guest_issue = x86.Cost_model.vmcall_issue;
      paper_hypercall = paper_hypercall (fun q -> q.Paper_data.kvm_x86);
    };
    {
      label = "Xen x86";
      platform = Platform.X86_r320;
      hyp_id = Platform.Xen;
      (* hvc: hypercall + evtchn_send kick; dabt: ict, non-vAPIC EOI,
         vipi-send. Dom0 is PV and never transitions, so io_in only
         contributes the DomU re-entry. *)
      mix = { hvc = 2; dabt = 3; irq = 2; entries = 8 };
      guest_issue = x86.Cost_model.vmcall_issue;
      paper_hypercall = paper_hypercall (fun q -> q.Paper_data.xen_x86);
    };
  ]

(* --- measured side ------------------------------------------------ *)

let exit_count vm reason =
  match
    List.find_opt (fun (r, _, _) -> r = reason) vm.Accounting.exits
  with
  | Some (_, n, _) -> n
  | None -> 0

let exit_latency_mean vm reason =
  match
    List.find_opt (fun (r, _, _) -> r = reason) vm.Accounting.exits
  with
  | Some (_, _, hist) -> Accounting.mean hist
  | None -> 0.0

(* Mean duration of the spans named [name] on the cpu track. *)
let span_mean events name =
  let sum = ref 0 and n = ref 0 in
  List.iter
    (fun (e : Span.event) ->
      match e.Span.kind with
      | Span.Complete dur when e.Span.name = name ->
          sum := !sum + dur;
          incr n
      | _ -> ())
    events;
  if !n = 0 then 0.0 else float_of_int !sum /. float_of_int !n

(* --- the crosscheck ------------------------------------------------ *)

let fi = float_of_int

let crosscheck ?(iterations = 8) () =
  if iterations < 1 then invalid_arg "Stat_report.crosscheck: iterations < 1";
  List.concat_map
    (fun me ->
      let model = me.label in
      (* Exit-mix checks over the full Table I suite. *)
      let vm, _ =
        traced_run ~label:model
          (Platform.hypervisor me.platform me.hyp_id)
          (full_suite ~iterations)
      in
      let count name reason expected =
        {
          model;
          name;
          measured = fi (exit_count vm reason);
          expected = fi (expected * iterations);
          tolerance_pct = 0.0;
        }
      in
      let mix_checks =
        [
          count "exits/hvc per suite" "hvc" me.mix.hvc;
          count "exits/dabt per suite" "dabt" me.mix.dabt;
          count "exits/irq per suite" "irq" me.mix.irq;
          {
            model;
            name = "entries per suite";
            measured = fi vm.Accounting.entries;
            expected = fi (me.mix.entries * iterations);
            tolerance_pct = 0.0;
          };
        ]
      in
      (* Hypercall latency over a hypercall-only run, so no other path
         can contribute hvc samples. *)
      let hc_hyp = Platform.hypervisor me.platform me.hyp_id in
      let hc_vm, hc_events =
        traced_run ~label:model hc_hyp (hypercall_only ~iterations)
      in
      let lat_checks =
        {
          model;
          name = "hypercall exit->entry vs path costs";
          measured = exit_latency_mean hc_vm "hvc";
          expected = fi hc_hyp.H.Hypervisor.hypercall_exit_entry;
          tolerance_pct = 1.0;
        }
        ::
        (match me.paper_hypercall with
        | None -> []
        | Some paper ->
            [
              {
                model;
                name = "hypercall total vs paper Table II";
                measured = exit_latency_mean hc_vm "hvc" +. fi me.guest_issue;
                expected = fi paper;
                tolerance_pct = 5.0;
              };
            ])
      in
      (* Table III reconstruction: only the split-mode ARM world switch
         plays back the full register-class sequence. *)
      let table3_checks =
        if me.label <> "KVM ARM" then []
        else
          List.concat_map
            (fun cls ->
              let costs = arm.Cost_model.reg cls in
              let cls_name = Reg_class.to_string cls in
              [
                {
                  model;
                  name = Printf.sprintf "Table III save %s" cls_name;
                  measured = span_mean hc_events (Arm_ops.save_label cls);
                  expected = fi costs.Cost_model.save;
                  tolerance_pct = 1.0;
                };
                {
                  model;
                  name = Printf.sprintf "Table III restore %s" cls_name;
                  measured = span_mean hc_events (Arm_ops.restore_label cls);
                  expected = fi costs.Cost_model.restore;
                  tolerance_pct = 1.0;
                };
              ])
            Reg_class.full_world_switch
      in
      mix_checks @ lat_checks @ table3_checks)
    models

let pp_checks ppf checks =
  let ok, bad = List.partition check_ok checks in
  let row c =
    [
      (if check_ok c then "ok" else "FAIL");
      c.model;
      c.name;
      Printf.sprintf "%.1f" c.measured;
      (* The tolerance follows the expected value, past its column. *)
      Printf.sprintf "%12.1f (tol %.0f%%)" c.expected c.tolerance_pct;
    ]
  in
  Table.text ppf
    (Table.v
       ~notes:
         [
           Printf.sprintf "%d/%d checks within tolerance" (List.length ok)
             (List.length checks);
         ]
       Table.
         [
           left 6 ""; left 14 "model"; left 40 "check"; right 12 "measured";
           right 12 "expected";
         ]
       (List.map row (ok @ bad)))
