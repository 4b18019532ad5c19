(* Bench-side spans for the traced run: one around every child process
   and every public call the benchmark makes, kept in memory and written
   as Chrome trace-event JSON when the run ends. The program itself is
   not instrumented. *)

type t = {
  id : int;
  parent : int;  (** -1 for a root span. *)
  layer : string;
  name : string;
  start : float;  (** Host seconds since the epoch. *)
  stop : float;
}

let finished = ref []
let next_id = ref 0
let current = ref (-1)

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let with_ ~layer name f =
  let id = fresh_id () and parent = !current in
  let start = Unix.gettimeofday () in
  current := id;
  Fun.protect
    ~finally:(fun () ->
      current := parent;
      finished :=
        { id; parent; layer; name; start; stop = Unix.gettimeofday () }
        :: !finished)
    f

(* A span timed by a child process, attached under the current span. *)
let add ~layer name ~start ~stop =
  finished :=
    { id = fresh_id (); parent = !current; layer; name; start; stop }
    :: !finished

let all () = List.sort (fun a b -> Int.compare a.id b.id) !finished

(* A span's self time is its duration less its children's; children of a
   span run one after another, so they never overlap. Summed per layer,
   sorted by layer name. *)
let self_times () =
  let spans = all () in
  let child_time id =
    List.fold_left
      (fun acc s -> if s.parent = id then acc +. (s.stop -. s.start) else acc)
      0. spans
  in
  List.fold_left
    (fun acc s ->
      let self = s.stop -. s.start -. child_time s.id in
      let prev = Option.value (List.assoc_opt s.layer acc) ~default:0. in
      (s.layer, prev +. self) :: List.remove_assoc s.layer acc)
    [] spans
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let write_chrome path =
  let spans = all () in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let us t = Float.to_int ((t -. t0) *. 1e6) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":%d,\"dur\":%d,\
             \"cat\":%s,\"name\":%s,\"args\":{\"id\":%d,\"parent\":%d}}\n"
            (if i = 0 then "" else ",")
            (us s.start)
            (us s.stop - us s.start)
            (Json.str s.layer) (Json.str s.name) s.id s.parent)
        spans;
      output_string oc "],\"displayTimeUnit\":\"ms\"}\n")
