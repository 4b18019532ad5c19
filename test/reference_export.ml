(* The trace recorder and exporters as they were before the ring held
   integers, kept as the oracle for test_obs's differential property: a
   polymorphic drop-oldest ring of [Span.event] records with string
   tracks and names, and exporters that sort, format and print each
   event through Printf and Format. Only test_obs uses it. *)

module Span = Armvirt_obs.Span
module Json = Armvirt_obs.Json
module Table = Armvirt_obs.Table

(* --- The ring: a growable array with an optional retention cap ------- *)

type 'a ring = {
  mutable data : 'a array;
  mutable head : int; (* index of oldest element *)
  mutable len : int;
  mutable dropped : int;
  capacity : int option;
}

let ring ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Ring.create: capacity < 1"
  | _ -> ());
  { data = [||]; head = 0; len = 0; dropped = 0; capacity }

let push t x =
  let n = Array.length t.data in
  if t.len < n then begin
    t.data.((t.head + t.len) mod n) <- x;
    t.len <- t.len + 1
  end
  else begin
    match t.capacity with
    | Some cap when t.len >= cap ->
        t.data.(t.head) <- x;
        t.head <- (t.head + 1) mod n;
        t.dropped <- t.dropped + 1
    | _ ->
        let n' = Stdlib.max 8 (2 * n) in
        let n' =
          match t.capacity with Some c -> Stdlib.min n' c | None -> n'
        in
        let grown = Array.make n' x in
        for i = 0 to t.len - 1 do
          grown.(i) <- t.data.((t.head + i) mod n)
        done;
        grown.(t.len) <- x;
        t.data <- grown;
        t.head <- 0;
        t.len <- t.len + 1
  end

let to_list t =
  let n = Array.length t.data in
  List.init t.len (fun i -> t.data.((t.head + i) mod n))

(* --- The tracer ------------------------------------------------------ *)

type tracer = Span.event ring

let tracer ?capacity () : tracer = ring ?capacity ()

let complete t ~track ~cat ~name ~ts ~dur =
  if dur < 0 then invalid_arg "Tracer.complete: negative duration";
  push t { Span.ts; track; cat; name; kind = Span.Complete dur }

let instant t ~track ~cat ~name ~ts =
  push t { Span.ts; track; cat; name; kind = Span.Instant }

let value t ~track ~cat ~name ~ts ~value =
  push t { Span.ts; track; cat; name; kind = Span.Value value }

(* --- The exporters --------------------------------------------------- *)

type process = {
  pid : int;
  name : string;
  events : Span.event list;
  dropped : int;
}

let process ~pid ~name (t : tracer) =
  { pid; name; events = to_list t; dropped = t.dropped }

let ordered events =
  List.mapi (fun i e -> (i, e)) events
  |> List.stable_sort (fun (ia, a) (ib, b) ->
         match Int.compare a.Span.ts b.Span.ts with
         | 0 -> (
             match Int.compare (Span.duration b) (Span.duration a) with
             | 0 -> Int.compare ia ib
             | c -> c)
         | c -> c)
  |> List.map snd

let tids events =
  let tracks =
    List.map (fun e -> e.Span.track) events |> List.sort_uniq String.compare
  in
  List.mapi (fun i track -> (track, i + 1)) tracks

let chrome ppf processes =
  Format.fprintf ppf "{\"traceEvents\":[";
  let first = ref true in
  let emit line =
    if !first then first := false else Format.fprintf ppf ",";
    Format.fprintf ppf "@.%s" line
  in
  List.iter
    (fun p ->
      emit
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\",\"args\":{\"name\":\"%s\",\"dropped_events\":%d}}"
           p.pid (Json.escape p.name) p.dropped);
      let tids = tids p.events in
      List.iter
        (fun (track, tid) ->
          emit
            (Printf.sprintf
               "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}"
               p.pid tid (Json.escape track)))
        tids;
      List.iter
        (fun e ->
          let tid = List.assoc e.Span.track tids in
          let common =
            Printf.sprintf
              "\"pid\":%d,\"tid\":%d,\"ts\":%d,\"cat\":\"%s\",\"name\":\"%s\""
              p.pid tid e.Span.ts
              (Span.category_to_string e.Span.cat)
              (Json.escape e.Span.name)
          in
          emit
            (match e.Span.kind with
            | Span.Complete dur ->
                Printf.sprintf "{\"ph\":\"X\",%s,\"dur\":%d}" common dur
            | Span.Instant ->
                Printf.sprintf "{\"ph\":\"i\",%s,\"s\":\"t\"}" common
            | Span.Value v ->
                Printf.sprintf "{\"ph\":\"C\",%s,\"args\":{\"value\":%d}}"
                  common v))
        (ordered p.events))
    processes;
  Format.fprintf ppf "@.],\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"simulated cycles (1 exported us = 1 cycle)\"}}@."

let csv ppf processes =
  Format.fprintf ppf "pid,process,tid,track,ts,dur,cat,name,value@.";
  List.iter
    (fun p ->
      let tids = tids p.events in
      List.iter
        (fun e ->
          let dur, value =
            match e.Span.kind with
            | Span.Complete d -> (string_of_int d, "")
            | Span.Instant -> ("", "")
            | Span.Value v -> ("", string_of_int v)
          in
          Format.fprintf ppf "%d,%s,%d,%s,%d,%s,%s,%s,%s@." p.pid
            (Table.csv_field p.name)
            (List.assoc e.Span.track tids)
            (Table.csv_field e.Span.track) e.Span.ts dur
            (Span.category_to_string e.Span.cat)
            (Table.csv_field e.Span.name) value)
        (ordered p.events))
    processes

let summary ppf processes =
  let add table k v =
    Hashtbl.replace table k (v + Option.value ~default:0 (Hashtbl.find_opt table k))
  in
  let by_cat = Hashtbl.create 8 in
  let by_name = Hashtbl.create 64 in
  let total = ref 0 in
  let events = ref 0 in
  let dropped = ref 0 in
  List.iter
    (fun p ->
      dropped := !dropped + p.dropped;
      List.iter
        (fun e ->
          incr events;
          let d = Span.duration e in
          if d > 0 then begin
            total := !total + d;
            add by_cat e.Span.cat d;
            add by_name (e.Span.cat, e.Span.name) d
          end)
        p.events)
    processes;
  Format.fprintf ppf
    "Cycle attribution (%d processes, %d events, %d dropped)@."
    (List.length processes) !events !dropped;
  Format.fprintf ppf "%s@." (String.make 64 '-');
  let cats =
    Hashtbl.fold (fun c v acc -> (c, v) :: acc) by_cat []
    |> List.sort (fun (ca, a) (cb, b) ->
           match Int.compare b a with
           | 0 ->
               String.compare
                 (Span.category_to_string ca)
                 (Span.category_to_string cb)
           | c -> c)
  in
  List.iter
    (fun (cat, cycles) ->
      let pct =
        if !total = 0 then 0.0
        else 100.0 *. float_of_int cycles /. float_of_int !total
      in
      Format.fprintf ppf "%-10s %14d %5.1f%%@."
        (Span.category_to_string cat)
        cycles pct;
      Hashtbl.fold
        (fun (c, name) v acc -> if c = cat then (name, v) :: acc else acc)
        by_name []
      |> List.sort (fun (na, a) (nb, b) ->
             match Int.compare b a with 0 -> String.compare na nb | c -> c)
      |> List.iter (fun (name, v) ->
             Format.fprintf ppf "  %-38s %14d@." name v))
    cats;
  Format.fprintf ppf "%s@." (String.make 64 '-');
  Format.fprintf ppf "%-10s %14d@." "total" !total
