(* A fixed CPU and memory workload that tells how fast the host runs right
   now. On a shared machine a co-tenant can slow every process by tens of
   percent for minutes at a time, so the ledger times this probe (as
   `ledger.exe --probe`, a process like the ones it measures) before and
   after every pass and reports times relative to it. Its mix follows the
   simulator's hot paths: string-keyed hash-table updates, a binary heap of
   timestamps, and short-lived allocation, over a working set of a few MB.
   It is benchmark code: changes to the program never change it. *)

let run () =
  (* counters keyed by label strings, as Machine accounting keeps them *)
  let counters = Hashtbl.create 4096 in
  let labels =
    Array.init 8192 (fun i ->
        Printf.sprintf "hyp.exit/reason%d/p%d" (i / 8) (i mod 8))
  in
  for i = 0 to 149_999 do
    let l = labels.((i * 7919) land 8191) in
    let n = Option.value (Hashtbl.find_opt counters l) ~default:0 in
    Hashtbl.replace counters l (n + 1)
  done;
  (* a binary min-heap of event times: push and pop at a steady depth *)
  let depth = 65536 in
  let heap = Array.make depth 0 and size = ref 0 in
  let push t =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2) > t do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- t
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) and i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
      if c < !size && heap.(c) < last then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else continue := false
    done;
    heap.(!i) <- last;
    top
  in
  for i = 0 to depth - 2 do
    push ((i * 7919) land 65535)
  done;
  let sum = ref 0 in
  for i = 0 to 199_999 do
    let t = pop () in
    sum := !sum + t;
    push (t + 1 + (i land 1023))
  done;
  (* short-lived allocation: lists of boxed pairs *)
  let live = ref [] in
  for i = 0 to 499_999 do
    live := (i, float_of_int i) :: !live;
    if i land 16383 = 0 then live := []
  done;
  Printf.printf "%d %d %d\n" (Hashtbl.length counters) !sum (List.length !live)
