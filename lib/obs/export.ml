type process = { pid : int; name : string; trace : Tracer.t }

(* Lines are written into a buffer with Buffer.add_* and handed to the
   formatter in chunks of about 64 KB: no event goes through Printf or
   Format, and no export holds a whole cell's text. *)
let chunk = 65536

let spill ppf buf =
  if Buffer.length buf >= chunk then begin
    Format.pp_print_string ppf (Buffer.contents buf);
    Buffer.clear buf
  end

let finish ppf buf =
  Format.pp_print_string ppf (Buffer.contents buf);
  Format.pp_print_flush ppf ()

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.chr (48 + (n mod 10)))

(* [string_of_int n] without building the string. *)
let add_int buf n =
  if n >= 0 then add_digits buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end

let duration t i =
  match Tracer.kind t i with
  | Tracer.Complete -> Tracer.arg t i
  | Tracer.Instant | Tracer.Value -> 0

(* Stable event order for rendering: by start time, then longer spans
   first (so nested spans follow their parents at equal starts), then
   recording order. Exporter output is a pure function of the ring —
   identical runs yield identical bytes. *)
let ordered t =
  let n = Tracer.length t in
  let ts = Array.init n (Tracer.ts t) and dur = Array.init n (duration t) in
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun i j ->
      match Int.compare ts.(i) ts.(j) with
      | 0 -> Int.compare dur.(j) dur.(i)
      | c -> c)
    order;
  order

(* The tracks retained events use, in label order, and each track id's
   Chrome tid: 1, 2, ... in that order. *)
let tids t =
  let used = Array.make (Tracer.tracks t) false in
  for i = 0 to Tracer.length t - 1 do
    used.(Tracer.track_of t i) <- true
  done;
  let tracks =
    List.filter (Array.get used) (List.init (Tracer.tracks t) Fun.id)
    |> List.sort (fun a b ->
           String.compare (Tracer.track_label t a) (Tracer.track_label t b))
  in
  let tid = Array.make (Tracer.tracks t) 0 in
  List.iteri (fun k track -> tid.(track) <- k + 1) tracks;
  (tracks, tid)

(* Each distinct name rendered once per cell. *)
let rendered_names render t =
  Array.init (Tracer.names t) (fun id -> render (Tracer.name_label t id))

(* Per cell, every constant piece of an event line is built once: the
   phase and pid, each track's tid, each category and each escaped
   name, so a line is six or eight appends. *)
let chrome ppf processes =
  let buf = Buffer.create (2 * chunk) in
  let add = Buffer.add_string buf and add_int = add_int buf in
  add "{\"traceEvents\":[";
  let first = ref true in
  let line () =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '\n'
  in
  let cats =
    Array.map
      (fun c -> ",\"cat\":\"" ^ Span.category_to_string c ^ "\",\"name\":\"")
      Span.categories
  in
  List.iter
    (fun p ->
      let t = p.trace and pid = string_of_int p.pid in
      line ();
      add "{\"ph\":\"M\",\"pid\":";
      add pid;
      add ",\"name\":\"process_name\",\"args\":{\"name\":\"";
      add (Json.escape p.name);
      add "\",\"dropped_events\":";
      add_int (Tracer.dropped t);
      add "}}";
      let tracks, tid = tids t in
      List.iter
        (fun track ->
          line ();
          add "{\"ph\":\"M\",\"pid\":";
          add pid;
          add ",\"tid\":";
          add_int tid.(track);
          add ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
          add (Json.escape (Tracer.track_label t track));
          add "\"}}")
        tracks;
      let head ph = "{\"ph\":\"" ^ ph ^ "\",\"pid\":" ^ pid ^ ",\"tid\":" in
      let complete = head "X" and instant = head "i" and value = head "C" in
      let tid_ts =
        Array.map (fun tid -> string_of_int tid ^ ",\"ts\":") tid
      and names = rendered_names Json.escape t in
      Array.iter
        (fun i ->
          line ();
          let kind = Tracer.kind t i in
          add
            (match kind with
            | Tracer.Complete -> complete
            | Tracer.Instant -> instant
            | Tracer.Value -> value);
          add tid_ts.(Tracer.track_of t i);
          add_int (Tracer.ts t i);
          add cats.(Span.category_index (Tracer.cat t i));
          add names.(Tracer.name_of t i);
          (match kind with
          | Tracer.Complete ->
              add "\",\"dur\":";
              add_int (Tracer.arg t i);
              Buffer.add_char buf '}'
          | Tracer.Instant -> add "\",\"s\":\"t\"}"
          | Tracer.Value ->
              add "\",\"args\":{\"value\":";
              add_int (Tracer.arg t i);
              add "}}");
          spill ppf buf)
        (ordered t))
    processes;
  add
    "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"simulated \
     cycles (1 exported us = 1 cycle)\"}}\n";
  finish ppf buf

(* As for {!chrome}: a row is its track's quoted prefix (pid, process,
   tid, track), the start, the category and the name between the
   optional duration and value. *)
let csv ppf processes =
  let buf = Buffer.create (2 * chunk) in
  let add = Buffer.add_string buf and add_int = add_int buf in
  add "pid,process,tid,track,ts,dur,cat,name,value\n";
  let cats =
    Array.map (fun c -> "," ^ Span.category_to_string c ^ ",") Span.categories
  in
  List.iter
    (fun p ->
      let t = p.trace in
      let _, tid = tids t
      and process = string_of_int p.pid ^ "," ^ Table.csv_field p.name ^ "," in
      let tracks =
        Array.mapi
          (fun track tid ->
            process ^ string_of_int tid ^ ","
            ^ Table.csv_field (Tracer.track_label t track)
            ^ ",")
          tid
      and names = rendered_names Table.csv_field t in
      Array.iter
        (fun i ->
          add tracks.(Tracer.track_of t i);
          add_int (Tracer.ts t i);
          Buffer.add_char buf ',';
          let kind = Tracer.kind t i in
          if kind = Tracer.Complete then add_int (Tracer.arg t i);
          add cats.(Span.category_index (Tracer.cat t i));
          add names.(Tracer.name_of t i);
          Buffer.add_char buf ',';
          if kind = Tracer.Value then add_int (Tracer.arg t i);
          Buffer.add_char buf '\n';
          spill ppf buf)
        (ordered t))
    processes;
  finish ppf buf

(* Flame-style cycle attribution: cycles per category across all
   processes, each category broken down by span name, sorted by
   descending cycles (ties by name, so output is deterministic). Within
   a cell, cycles add up in an array indexed by category and name id;
   names meet across cells by label. *)
let summary ppf processes =
  let ncats = Array.length Span.categories in
  let by_cat = Array.make ncats 0 in
  let by_name = Hashtbl.create 64 in
  let total = ref 0 and events = ref 0 and dropped = ref 0 in
  List.iter
    (fun p ->
      let t = p.trace in
      dropped := !dropped + Tracer.dropped t;
      events := !events + Tracer.length t;
      let nnames = Tracer.names t in
      let cycles = Array.make (ncats * nnames) 0 in
      for i = 0 to Tracer.length t - 1 do
        let d = duration t i in
        if d > 0 then begin
          let c = Span.category_index (Tracer.cat t i) in
          total := !total + d;
          by_cat.(c) <- by_cat.(c) + d;
          let k = (c * nnames) + Tracer.name_of t i in
          cycles.(k) <- cycles.(k) + d
        end
      done;
      Array.iteri
        (fun k d ->
          if d > 0 then begin
            let key = (k / nnames, Tracer.name_label t (k mod nnames)) in
            Hashtbl.replace by_name key
              (d + Option.value ~default:0 (Hashtbl.find_opt by_name key))
          end)
        cycles)
    processes;
  Format.fprintf ppf
    "Cycle attribution (%d processes, %d events, %d dropped)@."
    (List.length processes) !events !dropped;
  Format.fprintf ppf "%s@." (String.make 64 '-');
  let cats =
    List.filter (fun c -> by_cat.(c) > 0) (List.init ncats Fun.id)
    |> List.sort (fun a b ->
           match Int.compare by_cat.(b) by_cat.(a) with
           | 0 ->
               String.compare
                 (Span.category_to_string Span.categories.(a))
                 (Span.category_to_string Span.categories.(b))
           | c -> c)
  in
  List.iter
    (fun c ->
      let cycles = by_cat.(c) in
      let pct =
        if !total = 0 then 0.0
        else 100.0 *. float_of_int cycles /. float_of_int !total
      in
      Format.fprintf ppf "%-10s %14d %5.1f%%@."
        (Span.category_to_string Span.categories.(c))
        cycles pct;
      Hashtbl.fold
        (fun (c', name) v acc -> if c' = c then (name, v) :: acc else acc)
        by_name []
      |> List.sort (fun (na, a) (nb, b) ->
             match Int.compare b a with 0 -> String.compare na nb | c -> c)
      |> List.iter (fun (name, v) ->
             Format.fprintf ppf "  %-38s %14d@." name v))
    cats;
  Format.fprintf ppf "%s@." (String.make 64 '-');
  Format.fprintf ppf "%-10s %14d@." "total" !total
