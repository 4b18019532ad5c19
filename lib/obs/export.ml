type process = {
  pid : int;
  name : string;
  events : Span.event list;
  dropped : int;
}

(* Stable event order for rendering: by start time, then longer spans
   first (so nested spans follow their parents at equal starts), then
   recording order. Exporter output is a pure function of the event
   list — identical runs yield identical bytes. *)
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

(* Track name -> Chrome tid, assigned in sorted track order per process. *)
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

let escape_csv s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

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
            (escape_csv p.name)
            (List.assoc e.Span.track tids)
            (escape_csv e.Span.track) e.Span.ts dur
            (Span.category_to_string e.Span.cat)
            (escape_csv e.Span.name) value)
        (ordered p.events))
    processes

(* Flame-style cycle attribution: cycles per category across all
   processes, each category broken down by span name, sorted by
   descending cycles (ties by name, so output is deterministic). *)
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
