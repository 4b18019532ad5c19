(* Child processes for the ledger: stdout digested for the golden check,
   stderr passed through, and CPU time and peak RSS read back through
   wait4(2).

   A child's ru_maxrss also counts the address space it was spawned from,
   so the harness keeps its own heap small: it digests outputs as a stream
   and holds one in memory only when the caller asks ([~capture]). *)

type outcome = {
  status : int;  (** Exit code, or minus the signal that killed the child. *)
  timed_out : bool;
  wall_s : float;  (** From spawn to reap. *)
  cpu_s : float;  (** User plus system time of the child. *)
  maxrss_kb : int;
  digest : string;  (** MD5 of stdout, in hex. *)
  stdout : string;  (** Empty unless captured. *)
}

external wait4 : int -> float -> int * float * int * bool = "ledger_wait4"

(* [use_cpus first n] confines this process, and the children it starts
   from then on, to [n] of the CPUs it started with, from the [first]th
   on; returns how many it may use now. *)
external use_cpus : int -> int -> int = "ledger_use_cpus"

let confined = ref (0, max_int)

(* Runs [f cpus] with this process and its children confined to [cpus]
   CPUs, at most [n], then confines them as before. *)
let with_cpus ?(first = 0) n f =
  let before = !confined in
  confined := (first, n);
  let cpus = use_cpus first n in
  Fun.protect
    ~finally:(fun () ->
      confined := before;
      ignore (use_cpus (fst before) (snd before)))
    (fun () -> f cpus)

(* Where the harness keeps its files, under the build directory. *)
let work_dir = "_build/ledger"

let ensure_work_dir =
  lazy
    (List.iter
       (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
       [ Filename.dirname work_dir; work_dir ])

(* A child still running after this long is killed and counted as failed:
   a hang must not stall the benchmark. *)
let timeout_s = 120.

let ok o = o.status = 0 && not o.timed_out

type running = { pid : int; out : Unix.file_descr; t0 : float }

let started = ref 0

(* stdout goes to a file, not a pipe, so a child writing megabytes never
   waits for the harness to read them. The file is unlinked at once and
   read back after the child ends. *)
let start prog args =
  incr started;
  Lazy.force ensure_work_dir;
  let path =
    Filename.concat work_dir
      (Printf.sprintf "stdout-%d-%d" (Unix.getpid ()) !started)
  in
  let out =
    Unix.openfile path
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o600
  in
  Unix.unlink path;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = Unix.gettimeofday () in
  match
    Unix.create_process prog (Array.of_list (prog :: args)) null out Unix.stderr
  with
  | pid ->
      Unix.close null;
      { pid; out; t0 }
  | exception e ->
      Unix.close null;
      Unix.close out;
      raise e

let finish ?(capture = false) r =
  let status, cpu_s, maxrss_kb, timed_out = wait4 r.pid timeout_s in
  let wall_s = Unix.gettimeofday () -. r.t0 in
  let ic = Unix.in_channel_of_descr r.out in
  seek_in ic 0;
  let stdout = if capture then In_channel.input_all ic else "" in
  let digest =
    if capture then Digest.string stdout else Digest.channel ic (-1)
  in
  close_in ic;
  let digest = Digest.to_hex digest in
  { status; timed_out; wall_s; cpu_s; maxrss_kb; digest; stdout }

let run ?capture prog args = finish ?capture (start prog args)
