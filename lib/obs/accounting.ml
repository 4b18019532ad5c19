(* Exit accounting from one machine's counted markers and priced ops.
   Deterministic: every list built here is sorted before it escapes. *)

(* Log2 histograms, same bucket geometry as Metrics.observe: a sample v
   lands at the smallest power-of-two upper bound >= v. *)

type hist = {
  count : int;
  sum : int;
  min : int;
  max : int;
  buckets : (int * int) list;
}

let mean h = if h.count = 0 then 0.0 else float_of_int h.sum /. float_of_int h.count

(* Bucket [e] holds the samples whose bound is [1 lsl e]. *)
let bucket_index v =
  let rec go e b = if b >= v || b > max_int / 2 then e else go (e + 1) (b * 2) in
  if v <= 1 then 0 else go 1 2

type hist_acc = {
  mutable n : int;
  mutable total : int;
  mutable lo : int;
  mutable hi : int;
  counts : int array;
}

let hist_acc () =
  { n = 0; total = 0; lo = max_int; hi = 0; counts = Array.make 63 0 }

let hist_add acc v =
  acc.n <- acc.n + 1;
  acc.total <- acc.total + v;
  if v < acc.lo then acc.lo <- v;
  if v > acc.hi then acc.hi <- v;
  let e = bucket_index v in
  acc.counts.(e) <- acc.counts.(e) + 1

let hist_merge ~into src =
  into.n <- into.n + src.n;
  into.total <- into.total + src.total;
  if src.lo < into.lo then into.lo <- src.lo;
  if src.hi > into.hi then into.hi <- src.hi;
  Array.iteri (fun e c -> into.counts.(e) <- into.counts.(e) + c) src.counts

let hist_finish acc =
  let buckets = ref [] in
  for e = Array.length acc.counts - 1 downto 0 do
    if acc.counts.(e) > 0 then buckets := (1 lsl e, acc.counts.(e)) :: !buckets
  done;
  {
    count = acc.n;
    sum = acc.total;
    min = (if acc.n = 0 then 0 else acc.lo);
    max = acc.hi;
    buckets = !buckets;
  }

(* Lane attribution. *)

type lane = Guest | Hypervisor

let lane_to_string = function Guest -> "guest" | Hypervisor -> "hypervisor"

type spent = {
  label : string;
  cat : Span.category;
  lane : lane;
  cycles : int;
}

(* Exit latency: exits wait on (hyp, pcpu) for the next entry. Each
   (hyp, pcpu) has one slot, so a marker costs one lookup. *)

type slot = {
  mutable since : int;  (* the pending exit's time; -1 when none is *)
  mutable reason : Marker.reason;  (* the pending exit's reason *)
  mutable hists : (Marker.reason * hist_acc) list;
}

type pairing = (string * int, slot) Hashtbl.t

let pairing () = Hashtbl.create 8

let slot p hyp pcpu =
  match Hashtbl.find_opt p (hyp, pcpu) with
  | Some s -> s
  | None ->
      let s = { since = -1; reason = Marker.Hvc; hists = [] } in
      Hashtbl.add p (hyp, pcpu) s;
      s

let pair p (m : Marker.t) ~ts =
  match m with
  | Exit { hyp; reason; pcpu } ->
      let s = slot p hyp pcpu in
      s.since <- ts;
      s.reason <- reason
  | Entry { hyp; pcpu; _ } ->
      let s = slot p hyp pcpu in
      if s.since >= 0 then begin
        let acc =
          match List.assq_opt s.reason s.hists with
          | Some acc -> acc
          | None ->
              let acc = hist_acc () in
              s.hists <- (s.reason, acc) :: s.hists;
              acc
        in
        hist_add acc (ts - s.since);
        s.since <- -1
      end
  | Op _ | Port _ | Flood _ | Uplink _ -> ()

(* Rows. *)

type vm_stats = {
  cell : string;
  machine : string;
  hyp : string;
  exits : (string * int * hist) list;
  exits_per_pcpu : (int * (string * int * hist) list) list;
  entries : int;
  entries_per_domain : (int * int) list;
  ops : (string * int) list;
  guest_cycles : int;
  hyp_cycles : int;
}

type t = {
  vms : vm_stats list;
  total_guest : int;
  total_hyp : int;
  total_exits : int;
}

let by_count_then_reason (ra, ca, _) (rb, cb, _) =
  match Int.compare cb ca with 0 -> String.compare ra rb | c -> c

(* [exits] holds each (reason, pcpu, count) of one hypervisor once:
   aggregated over PCPUs and broken out per PCPU. *)
let exit_rows pairing hyp exits =
  let reasons =
    List.sort_uniq compare (List.map (fun (r, _, _) -> r) exits)
  in
  let pcpus = List.sort_uniq Int.compare (List.map (fun (_, p, _) -> p) exits) in
  let count_of r p =
    List.fold_left
      (fun s (r', p', n) -> if r' = r && p' = p then s + n else s)
      0 exits
  in
  let acc_of r p =
    Option.bind (Hashtbl.find_opt pairing (hyp, p)) (fun s ->
        List.assq_opt r s.hists)
  in
  let hist_for r p =
    hist_finish (Option.value (acc_of r p) ~default:(hist_acc ()))
  in
  let merged r =
    let into = hist_acc () in
    List.iter (fun p -> Option.iter (hist_merge ~into) (acc_of r p)) pcpus;
    hist_finish into
  in
  let name = Marker.reason_to_string in
  let aggregated =
    List.map
      (fun r ->
        let total = List.fold_left (fun s p -> s + count_of r p) 0 pcpus in
        (name r, total, merged r))
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
              if c = 0 then None else Some (name r, c, hist_for r p))
            reasons
          |> List.sort by_count_then_reason
        in
        if rows = [] then None else Some (p, rows))
      pcpus
  in
  (aggregated, per_pcpu)

(* Sum the counts of equal keys, ascending by key. *)
let sum_by_key pairs =
  List.fold_left
    (fun acc (k, n) ->
      match acc with
      | (k', m) :: rest when k' = k -> (k, m + n) :: rest
      | _ -> (k, n) :: acc)
    []
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) pairs)
  |> List.rev

let rows ~cell ~machine ~markers ~ops pairing =
  let guest_cycles, hyp_cycles =
    List.fold_left
      (fun (g, h) o ->
        match o.lane with
        | Guest -> (g + o.cycles, h)
        | Hypervisor -> (g, h + o.cycles))
      (0, 0) ops
  in
  let row hyp ~cycles:(guest_cycles, hyp_cycles) markers =
    let exits = ref [] and entries = ref 0 and domains = ref [] and ops = ref [] in
    List.iter
      (fun ((m : Marker.t), n) ->
        match m with
        | Exit e -> exits := (e.reason, e.pcpu, n) :: !exits
        | Entry e ->
            entries := !entries + n;
            Option.iter (fun d -> domains := (d, n) :: !domains) e.domid
        | Op _ | Port _ | Flood _ | Uplink _ -> ops := (Marker.name m, n) :: !ops)
      markers;
    let exits, exits_per_pcpu = exit_rows pairing hyp !exits in
    {
      cell;
      machine;
      hyp;
      exits;
      exits_per_pcpu;
      entries = !entries;
      (* One domid can enter on several PCPUs. *)
      entries_per_domain = sum_by_key !domains;
      ops = List.sort compare !ops;
      guest_cycles;
      hyp_cycles;
    }
  in
  match
    List.sort_uniq String.compare (List.map (fun (m, _) -> Marker.hyp m) markers)
  with
  | [] ->
      (* No markers (e.g. a native run): still report attribution. *)
      if guest_cycles = 0 && hyp_cycles = 0 then []
      else [ row "-" ~cycles:(guest_cycles, hyp_cycles) [] ]
  | hyps ->
      (* Cycles go to the first row: in practice one machine hosts one
         hypervisor. *)
      List.mapi
        (fun i hyp ->
          row hyp
            ~cycles:(if i = 0 then (guest_cycles, hyp_cycles) else (0, 0))
            (List.filter (fun (m, _) -> Marker.hyp m = hyp) markers))
        hyps

let of_rows vms =
  let total_guest = List.fold_left (fun s v -> s + v.guest_cycles) 0 vms in
  let total_hyp = List.fold_left (fun s v -> s + v.hyp_cycles) 0 vms in
  let total_exits =
    List.fold_left
      (fun s v -> List.fold_left (fun s (_, c, _) -> s + c) s v.exits)
      0 vms
  in
  { vms; total_guest; total_hyp; total_exits }
