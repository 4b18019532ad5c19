(* Exit accounting as it was before it read the machines' counters,
   kept verbatim as the oracle for test_stat's differential property:
   parse every counted label back out of a cell's trace ring, pair exit
   and entry instants on the "cpu" tracks and sum the complete spans
   into the two lanes. Only test_stat uses it. It produces the library's
   own row types, so both sides render through one Stat.render_json. *)

module Span = Armvirt_obs.Span
module Export = Armvirt_obs.Export
open Armvirt_obs.Accounting

type marker =
  | Exit of { hyp : string; reason : string; pcpu : int }
  | Entry of { hyp : string; pcpu : int; domid : int option }
  | Op of { hyp : string; op : string }

let int_after prefix s =
  let np = String.length prefix in
  if String.length s > np && String.sub s 0 np = prefix then
    int_of_string_opt (String.sub s np (String.length s - np))
  else None

let parse_label label =
  match String.index_opt label '.' with
  | None -> None
  | Some dot -> (
      let hyp = String.sub label 0 dot in
      let rest = String.sub label (dot + 1) (String.length label - dot - 1) in
      match String.split_on_char '/' rest with
      | [ "exit"; reason; p ] -> (
          match int_after "p" p with
          | Some pcpu -> Some (Exit { hyp; reason; pcpu })
          | None -> Some (Op { hyp; op = rest }))
      | [ "entry"; p ] -> (
          match int_after "p" p with
          | Some pcpu -> Some (Entry { hyp; pcpu; domid = None })
          | None -> Some (Op { hyp; op = rest }))
      | [ "entry"; p; d ] -> (
          match (int_after "p" p, int_after "d" d) with
          | Some pcpu, Some domid -> Some (Entry { hyp; pcpu; domid = Some domid })
          | _ -> Some (Op { hyp; op = rest }))
      | _ -> Some (Op { hyp; op = rest }))

(* Log2 histograms, same bucket geometry as Metrics.observe: a sample v
   lands at the smallest power-of-two upper bound >= v. *)

let bucket_bound v =
  if v <= 1 then 1
  else
    let rec go b = if b >= v then b else go (b * 2) in
    go 2

type hist_acc = {
  mutable n : int;
  mutable total : int;
  mutable lo : int;
  mutable hi : int;
  tbl : (int, int ref) Hashtbl.t;
}

let hist_acc () = { n = 0; total = 0; lo = max_int; hi = 0; tbl = Hashtbl.create 8 }

let hist_add acc v =
  acc.n <- acc.n + 1;
  acc.total <- acc.total + v;
  if v < acc.lo then acc.lo <- v;
  if v > acc.hi then acc.hi <- v;
  let b = bucket_bound v in
  match Hashtbl.find_opt acc.tbl b with
  | Some r -> incr r
  | None -> Hashtbl.add acc.tbl b (ref 1)

let hist_finish acc =
  {
    count = acc.n;
    sum = acc.total;
    min = (if acc.n = 0 then 0 else acc.lo);
    max = acc.hi;
    buckets =
      Hashtbl.fold (fun b r l -> (b, !r) :: l) acc.tbl []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
  }

(* A "cpu" track is "cpu" (machine 0) or "m<N>:cpu". *)
let machine_of_track track =
  if track = "cpu" then Some "m0"
  else
    match String.index_opt track ':' with
    | Some i
      when String.sub track (i + 1) (String.length track - i - 1) = "cpu"
           && i > 1 && track.[0] = 'm' ->
        Some (String.sub track 0 i)
    | _ -> None

(* Per-(machine) mutable accumulator while scanning one cell. *)
type macc = {
  mutable m_entries : (string, int ref) Hashtbl.t;  (* hyp -> entries *)
  dom_entries : (string * int, int ref) Hashtbl.t;
      (* (hyp, domid) -> entries carrying a d<domid> suffix *)
  exit_counts : (string * string * int, int ref) Hashtbl.t;
      (* (hyp, reason, pcpu) -> count *)
  latencies : (string * string * int, hist_acc) Hashtbl.t;
  pending : (string * int, string * int) Hashtbl.t;
      (* (hyp, pcpu) -> (reason, exit ts) for the exit awaiting re-entry *)
  op_counts : (string * string, int ref) Hashtbl.t;  (* (hyp, op) -> n *)
  mutable g_cycles : int;
  mutable h_cycles : int;
}

let macc () =
  {
    m_entries = Hashtbl.create 4;
    dom_entries = Hashtbl.create 16;
    exit_counts = Hashtbl.create 16;
    latencies = Hashtbl.create 16;
    pending = Hashtbl.create 8;
    op_counts = Hashtbl.create 16;
    g_cycles = 0;
    h_cycles = 0;
  }

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.add tbl key (ref 1)

let scan_cell (p : Export.process) =
  let machines : (string, macc) Hashtbl.t = Hashtbl.create 4 in
  let get_macc m =
    match Hashtbl.find_opt machines m with
    | Some a -> a
    | None ->
        let a = macc () in
        Hashtbl.add machines m a;
        a
  in
  List.iter
    (fun (e : Span.event) ->
      match machine_of_track e.Span.track with
      | None -> ()
      | Some m -> (
          let a = get_macc m in
          match e.Span.kind with
          | Span.Complete dur -> (
              match Reference_span.lane_of_label e.Span.name with
              | Guest -> a.g_cycles <- a.g_cycles + dur
              | Hypervisor -> a.h_cycles <- a.h_cycles + dur)
          | Span.Value _ -> ()
          | Span.Instant -> (
              match parse_label e.Span.name with
              | None -> ()
              | Some (Exit { hyp; reason; pcpu }) ->
                  bump a.exit_counts (hyp, reason, pcpu);
                  (* A second exit before any entry replaces the pending
                     one: the first never re-entered (e.g. the VCPU
                     blocked), so it contributes no latency sample. *)
                  Hashtbl.replace a.pending (hyp, pcpu) (reason, e.Span.ts)
              | Some (Entry { hyp; pcpu; domid }) -> (
                  bump a.m_entries hyp;
                  (match domid with
                  | Some d -> bump a.dom_entries (hyp, d)
                  | None -> ());
                  match Hashtbl.find_opt a.pending (hyp, pcpu) with
                  | None -> ()  (* entry without a marked exit: no sample *)
                  | Some (reason, ts0) ->
                      Hashtbl.remove a.pending (hyp, pcpu);
                      let key = (hyp, reason, pcpu) in
                      let acc =
                        match Hashtbl.find_opt a.latencies key with
                        | Some acc -> acc
                        | None ->
                            let acc = hist_acc () in
                            Hashtbl.add a.latencies key acc;
                            acc
                      in
                      hist_add acc (e.Span.ts - ts0))
              | Some (Op { hyp; op }) -> bump a.op_counts (hyp, op))))
    (Armvirt_obs.Tracer.events p.Export.trace);
  machines

let by_count_then_reason (ra, ca, _) (rb, cb, _) =
  match Int.compare cb ca with 0 -> String.compare ra rb | c -> c

(* Rows for one (machine accumulator, hyp): aggregated over PCPUs and
   broken out per PCPU. *)
let exit_rows (a : macc) hyp =
  let keys =
    Hashtbl.fold (fun (h, r, p) c l -> if h = hyp then (r, p, !c) :: l else l)
      a.exit_counts []
    |> List.sort compare
  in
  let reasons = List.sort_uniq String.compare (List.map (fun (r, _, _) -> r) keys) in
  let pcpus = List.sort_uniq Int.compare (List.map (fun (_, p, _) -> p) keys) in
  let hist_for r p =
    match Hashtbl.find_opt a.latencies (hyp, r, p) with
    | Some acc -> hist_finish acc
    | None -> hist_finish (hist_acc ())
  in
  let merge_hists r ps =
    let acc = hist_acc () in
    (* Rebuild the aggregate from per-pcpu accumulators: totals add and
       buckets add, so fold them in ascending pcpu order. *)
    List.iter
      (fun p ->
        match Hashtbl.find_opt a.latencies (hyp, r, p) with
        | None -> ()
        | Some src ->
            acc.n <- acc.n + src.n;
            acc.total <- acc.total + src.total;
            if src.n > 0 && src.lo < acc.lo then acc.lo <- src.lo;
            if src.hi > acc.hi then acc.hi <- src.hi;
            Hashtbl.fold (fun b r' l -> (b, !r') :: l) src.tbl []
            |> List.sort (fun (x, _) (y, _) -> Int.compare x y)
            |> List.iter (fun (b, n) ->
                   match Hashtbl.find_opt acc.tbl b with
                   | Some cell -> cell := !cell + n
                   | None -> Hashtbl.add acc.tbl b (ref n)))
      ps;
    hist_finish acc
  in
  let count_of r p =
    match Hashtbl.find_opt a.exit_counts (hyp, r, p) with
    | Some c -> !c
    | None -> 0
  in
  let aggregated =
    List.map
      (fun r ->
        let total = List.fold_left (fun s p -> s + count_of r p) 0 pcpus in
        (r, total, merge_hists r pcpus))
      reasons
    |> List.sort by_count_then_reason
  in
  let per_pcpu =
    List.filter_map
      (fun p ->
        let rows =
          List.filter_map
            (fun r ->
              let c = count_of r p in
              if c = 0 then None else Some (r, c, hist_for r p))
            reasons
          |> List.sort by_count_then_reason
        in
        if rows = [] then None else Some (p, rows))
      pcpus
  in
  (aggregated, per_pcpu)

let vm_stats_of_cell (p : Export.process) =
  let machines = scan_cell p in
  let machine_ids =
    Hashtbl.fold (fun m _ l -> m :: l) machines []
    |> List.sort String.compare
  in
  List.concat_map
    (fun m ->
      let a = Hashtbl.find machines m in
      let hyps =
        Hashtbl.fold (fun (h, _, _) _ l -> h :: l) a.exit_counts []
        @ Hashtbl.fold (fun (h, _) _ l -> h :: l) a.op_counts []
        @ Hashtbl.fold (fun h _ l -> h :: l) a.m_entries []
        |> List.sort_uniq String.compare
      in
      let mk hyp exits exits_per_pcpu entries entries_per_domain ops g h =
        {
          cell = p.Export.name;
          machine = m;
          hyp;
          exits;
          exits_per_pcpu;
          entries;
          entries_per_domain;
          ops;
          guest_cycles = g;
          hyp_cycles = h;
        }
      in
      match hyps with
      | [] ->
          (* No markers (e.g. a native run): still report attribution. *)
          if a.g_cycles = 0 && a.h_cycles = 0 then []
          else [ mk "-" [] [] 0 [] [] a.g_cycles a.h_cycles ]
      | _ ->
          (* Attribute the machine's cycles to its first hypervisor row;
             in practice one machine hosts one hypervisor. *)
          List.mapi
            (fun i hyp ->
              let exits, per_pcpu = exit_rows a hyp in
              let entries =
                match Hashtbl.find_opt a.m_entries hyp with
                | Some r -> !r
                | None -> 0
              in
              let entries_per_domain =
                Hashtbl.fold
                  (fun (h, d) c l -> if h = hyp then (d, !c) :: l else l)
                  a.dom_entries []
                |> List.sort compare
              in
              let ops =
                Hashtbl.fold
                  (fun (h, op) c l -> if h = hyp then (op, !c) :: l else l)
                  a.op_counts []
                |> List.sort compare
              in
              let g, h = if i = 0 then (a.g_cycles, a.h_cycles) else (0, 0) in
              mk hyp exits per_pcpu entries entries_per_domain ops g h)
            hyps)
    machine_ids

let of_processes processes =
  let vms = List.concat_map vm_stats_of_cell processes in
  let total_guest = List.fold_left (fun s v -> s + v.guest_cycles) 0 vms in
  let total_hyp = List.fold_left (fun s v -> s + v.hyp_cycles) 0 vms in
  let total_exits =
    List.fold_left
      (fun s v -> List.fold_left (fun s (_, c, _) -> s + c) s v.exits)
      0 vms
  in
  { vms; total_guest; total_hyp; total_exits }
