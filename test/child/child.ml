(* Most runs end within tens of milliseconds, so the child is polled
   every millisecond: a longer pause adds up over the hundreds of runs
   the tests make. *)
let run ?env ?(time_bound_s = 20.0) prog args =
  let out = Filename.temp_file "armvirt_child" ".out" in
  let err = Filename.temp_file "armvirt_child" ".err" in
  let stdout_fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let stderr_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let argv = Array.of_list (prog :: args) in
  let pid =
    match env with
    | None -> Unix.create_process prog argv Unix.stdin stdout_fd stderr_fd
    | Some env ->
        Unix.create_process_env prog argv env Unix.stdin stdout_fd stderr_fd
  in
  Unix.close stdout_fd;
  Unix.close stderr_fd;
  let deadline = Unix.gettimeofday () +. time_bound_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () > deadline ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Error (Printf.sprintf "ran past %.0f s" time_bound_s)
    | 0, _ ->
        Unix.sleepf 0.001;
        wait ()
    | _, Unix.WEXITED code -> Ok code
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> Error "was killed"
  in
  let status = wait () in
  let read file =
    let s = In_channel.with_open_bin file In_channel.input_all in
    Sys.remove file;
    s
  in
  let stdout = read out in
  let stderr = read err in
  match status with
  | Ok code -> (code, stdout, stderr)
  | Error what -> Alcotest.failf "%s %s %s" prog (String.concat " " args) what

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0
