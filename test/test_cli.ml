(* The CLI rejects unknown ids and invalid arguments up front: for each
   case armvirt must exit with the expected code, print nothing on stdout
   (the error goes to stderr, never into the data), and do so within a
   time bound — it may not run anything first.

   Runs ../bin/armvirt.exe, which the test stanza depends on. *)

let armvirt = Filename.concat (Filename.concat ".." "bin") "armvirt.exe"
let time_bound_s = 20.0

(* Exit code and stdout of one run, or a failure past the time bound. *)
let run ?(time_bound_s = time_bound_s) args =
  let out = Filename.temp_file "armvirt_cli" ".out" in
  let stdout_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process armvirt
      (Array.of_list (armvirt :: args))
      Unix.stdin stdout_fd devnull
  in
  Unix.close stdout_fd;
  Unix.close devnull;
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
  let stdout = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  (code, stdout)

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

let test_case ?time_bound_s ~code args =
  let name = String.concat " " args in
  Alcotest.test_case name `Quick (fun () ->
      let got, stdout = run ?time_bound_s args in
      Alcotest.(check int) (name ^ " exit code") code got;
      Alcotest.(check string) (name ^ " prints nothing on stdout") "" stdout)

let () =
  Alcotest.run "cli"
    [
      ("usage error", List.map (test_case ~code:124) usage_errors);
      ( "rejected argument",
        List.map (test_case ~code:2) rejected
        @ List.map (test_case ~time_bound_s:1.0 ~code:2) too_large );
    ]
