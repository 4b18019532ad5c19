(* The CLI rejects unknown ids and invalid arguments up front: for each
   case armvirt must exit with the expected code, print nothing on stdout
   (the error goes to stderr, never into the data), and do so within a
   time bound — it may not run anything first.

   Runs ../bin/armvirt.exe, which the test stanza depends on. *)

let armvirt = Filename.concat (Filename.concat ".." "bin") "armvirt.exe"
let time_bound_s = 20.0

(* Exit code, stdout and stderr of one run, or a failure past the time
   bound. *)
let run ?(time_bound_s = time_bound_s) args =
  let out = Filename.temp_file "armvirt_cli" ".out" in
  let err = Filename.temp_file "armvirt_cli" ".err" in
  let stdout_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let stderr_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process armvirt
      (Array.of_list (armvirt :: args))
      Unix.stdin stdout_fd stderr_fd
  in
  Unix.close stdout_fd;
  Unix.close stderr_fd;
  let deadline = Unix.gettimeofday () +. time_bound_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () > deadline ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "armvirt %s ran past %.0f s" (String.concat " " args)
          time_bound_s
    | 0, _ ->
        Unix.sleepf 0.02;
        wait ()
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
        Alcotest.failf "armvirt %s was killed" (String.concat " " args)
  in
  let code = wait () in
  let read file =
    let s = In_channel.with_open_bin file In_channel.input_all in
    Sys.remove file;
    s
  in
  let stdout = read out in
  (code, stdout, read err)

(* Unknown ids and values the option parser rejects are cmdliner usage
   errors: exit 124. *)
let usage_errors =
  [
    [ "run"; "bogus" ];
    (* Validated before table3 runs: nothing reaches stdout. *)
    [ "run"; "table3"; "bogus" ];
    [ "app"; "bogus" ];
    [ "timeline"; "--op"; "bogus" ];
    [ "trace"; "bogus" ];
    (* Counts must be positive: rejected before micro prints its header. *)
    [ "micro"; "--iterations"; "0" ];
    [ "micro"; "--iterations=-1" ];
    [ "rr"; "--transactions"; "0" ];
    [ "rr"; "--transactions=-5" ];
    [ "stat"; "micro"; "--iterations"; "0" ];
    [ "explore"; "--space"; "bogus" ];
  ]

(* Values the parser accepts but the command rejects: exit 2. *)
let rejected =
  [
    [ "fleet"; "--vms"; "0" ];
    [ "fleet"; "--vms=-1" ];
    [ "fleet"; "--profile-mix"; "bogus" ];
    [ "migrate"; "--pages"; "0" ];
    [ "explore" ];
    [ "cluster"; "--offered-load"; "0" ];
    [ "stat"; "micro"; "rr" ];
    [ "stat"; "--diff"; "onlyone" ];
  ]

(* Sizes past the stated limits: rejected before anything is allocated,
   so each exits at once instead of running out of memory or running
   for minutes. *)
let too_large =
  [
    [ "fleet"; "--vms"; "4611686018427387903" ];
    [ "fleet"; "--vms"; "1000000000" ];
    [ "cluster"; "--vms"; "1000000000" ];
    [ "migrate"; "--pages"; "4611686018427387903" ];
    [ "explore"; "--space"; "vgic.save=1:1000000000:1" ];
  ]

(* Migration plans and explore points that used to hang, crash or print
   NaN rows: non-finite floats, sizes past the limits `migrate --help`
   states, and explore levels a configuration cannot take. *)
let bad_plans =
  [
    [ "migrate"; "--rate"; "inf" ];
    [ "migrate"; "--rate"; "nan" ];
    [ "migrate"; "--rate"; "1e9" ];
    [ "migrate"; "--bandwidth"; "1e-9" ];
    [ "migrate"; "--bandwidth"; "nan" ];
    [ "migrate"; "--downtime"; "nan" ];
    [ "migrate"; "--vcpus"; "1000000000" ];
    [ "migrate"; "--page-kb"; "4194304" ];
    [ "explore"; "--space"; "hyp=bogus" ];
    [ "explore"; "--space"; "fleet.vms=0|2" ];
    [ "explore"; "--space"; "mig.page_kb=0|4" ];
    [ "explore"; "--space"; "mig.max_rounds=0|3" ];
    [ "explore"; "--space"; "mig.bandwidth_gbps=nan" ];
    [ "explore"; "--space"; "mig.txn_rate_hz=1e9|2e4" ];
    [ "explore"; "--space"; "mig.page_kb=0|4"; "--calibrate" ];
  ]

(* A rejection (exit 2) is one line on stderr; cmdliner's usage errors
   (exit 124) print the usage too. *)
let test_case ?time_bound_s ~code args =
  let name = String.concat " " args in
  Alcotest.test_case name `Quick (fun () ->
      let got, stdout, stderr = run ?time_bound_s args in
      Alcotest.(check int) (name ^ " exit code") code got;
      Alcotest.(check string) (name ^ " prints nothing on stdout") "" stdout;
      if code = 2 then
        Alcotest.(check int)
          (name ^ " prints one line on stderr: " ^ stderr)
          1
          (List.length (String.split_on_char '\n' (String.trim stderr))))

let () =
  Alcotest.run "cli"
    [
      ("usage error", List.map (test_case ~code:124) usage_errors);
      ( "rejected argument",
        List.map (test_case ~code:2) rejected
        @ List.map (test_case ~time_bound_s:1.0 ~code:2) too_large
        @ List.map (test_case ~time_bound_s:5.0 ~code:2) bad_plans );
    ]
