(* Tests for Armvirt_timer: the per-VCPU virtual timer. *)

module Cycles = Armvirt_engine.Cycles
module Sim = Armvirt_engine.Sim
module Arch_timer = Armvirt_timer.Arch_timer

let test_timer_fires_at_deadline () =
  let sim = Sim.create () in
  let fired_at = ref (-1) in
  let timer =
    Arch_timer.create ~on_expiry:(fun () ->
        fired_at := Cycles.to_int (Sim.current_time ()))
  in
  Sim.spawn sim ~name:"guest" (fun () ->
      Arch_timer.arm_timer timer ~deadline:(Cycles.of_int 500));
  Sim.run sim;
  Alcotest.(check int) "fires exactly at deadline" 500 !fired_at;
  Alcotest.(check int) "one expiration" 1 (Arch_timer.expirations timer);
  Alcotest.(check bool) "disarmed after firing" false (Arch_timer.is_armed timer)

let test_timer_rearm_supersedes () =
  let sim = Sim.create () in
  let fires = ref [] in
  let timer =
    Arch_timer.create ~on_expiry:(fun () ->
        fires := Cycles.to_int (Sim.current_time ()) :: !fires)
  in
  Sim.spawn sim ~name:"guest" (fun () ->
      Arch_timer.arm_timer timer ~deadline:(Cycles.of_int 100);
      Sim.delay (Cycles.of_int 10);
      (* Re-arm to a later deadline; only the new one fires. *)
      Arch_timer.arm_timer timer ~deadline:(Cycles.of_int 300));
  Sim.run sim;
  Alcotest.(check (list int)) "only the new deadline fires" [ 300 ] !fires

let test_timer_past_deadline_fires_now () =
  let sim = Sim.create () in
  let fired_at = ref (-1) in
  let timer =
    Arch_timer.create ~on_expiry:(fun () ->
        fired_at := Cycles.to_int (Sim.current_time ()))
  in
  Sim.spawn sim ~name:"guest" (fun () ->
      Sim.delay (Cycles.of_int 1000);
      Arch_timer.arm_timer timer ~deadline:(Cycles.of_int 10));
  Sim.run sim;
  Alcotest.(check int) "past deadline fires immediately" 1000 !fired_at

let test_timer_repeated_ticks () =
  (* A guest periodic tick: re-arm from the expiry handler, as Linux's
     clockevent does. *)
  let sim = Sim.create () in
  let count = ref 0 in
  let timer_ref = ref None in
  let on_expiry () =
    incr count;
    if !count < 5 then begin
      let t = Option.get !timer_ref in
      Sim.spawn_here ~name:"rearm" (fun () ->
          Arch_timer.arm_timer t
            ~deadline:(Cycles.add (Sim.current_time ()) (Cycles.of_int 100)))
    end
  in
  let timer = Arch_timer.create ~on_expiry in
  timer_ref := Some timer;
  Sim.spawn sim ~name:"guest" (fun () ->
      Arch_timer.arm_timer timer ~deadline:(Cycles.of_int 100));
  Sim.run sim;
  Alcotest.(check int) "five periodic ticks" 5 !count;
  Alcotest.(check int) "final time" 500 (Cycles.to_int (Sim.now sim))

let () =
  Alcotest.run "timer"
    [
      ( "arch_timer",
        [
          Alcotest.test_case "fires at deadline" `Quick test_timer_fires_at_deadline;
          Alcotest.test_case "re-arm supersedes" `Quick test_timer_rearm_supersedes;
          Alcotest.test_case "past deadline fires now" `Quick
            test_timer_past_deadline_fires_now;
          Alcotest.test_case "periodic ticks" `Quick test_timer_repeated_ticks;
        ] );
    ]
