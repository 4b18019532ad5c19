(* The CLI rejects unknown ids up front: for each case armvirt must exit
   non-zero, print nothing on stdout (the error goes to stderr), and do
   so within a time bound — it may not run anything first.

   Runs ../bin/armvirt.exe, which the test stanza depends on. *)

let armvirt = Filename.concat (Filename.concat ".." "bin") "armvirt.exe"
let time_bound_s = 20.0

(* Exit code and stdout of one run, or a failure past the time bound. *)
let run args =
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

let cases =
  [
    [ "run"; "bogus" ];
    (* Validated before table3 runs: nothing reaches stdout. *)
    [ "run"; "table3"; "bogus" ];
    [ "app"; "bogus" ];
    [ "timeline"; "--op"; "bogus" ];
    [ "trace"; "bogus" ];
  ]

let test_case args =
  let name = String.concat " " args in
  Alcotest.test_case name `Quick (fun () ->
      let code, stdout = run args in
      Alcotest.(check bool) (name ^ " exits non-zero") true (code <> 0);
      Alcotest.(check string) (name ^ " prints nothing on stdout") "" stdout)

let () = Alcotest.run "cli" [ ("unknown id", List.map test_case cases) ]
