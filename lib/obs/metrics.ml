type labels = (string * string) list

type key = { name : string; labels : labels }

let key ~name ~labels =
  { name; labels = List.stable_sort (fun (a, _) (b, _) -> String.compare a b) labels }

let compare_labels =
  List.compare (fun (ka, va) (kb, vb) ->
      match String.compare ka kb with 0 -> String.compare va vb | c -> c)

let compare_key a b =
  match String.compare a.name b.name with
  | 0 -> compare_labels a.labels b.labels
  | c -> c

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  buckets : (int, int) Hashtbl.t; (* exponent e, bucket upper bound 2^e *)
}

type t = {
  counters : (key, int ref) Hashtbl.t;
  gauges : (key, float ref) Hashtbl.t;
  histograms : (key, hist) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 32;
    histograms = Hashtbl.create 32;
  }

let find_or_add table k fresh =
  match Hashtbl.find_opt table k with
  | Some v -> v
  | None ->
      let v = fresh () in
      Hashtbl.replace table k v;
      v

let incr t ?(labels = []) ?(by = 1) name =
  let cell = find_or_add t.counters (key ~name ~labels) (fun () -> ref 0) in
  cell := !cell + by

let set_gauge t ?(labels = []) name v =
  let cell = find_or_add t.gauges (key ~name ~labels) (fun () -> ref 0.0) in
  cell := v

(* Log-bucketed: observation [v] lands in the first bucket whose upper
   bound 2^e (e >= 0) is >= v. Power-of-two doubling is exact in float,
   so boundaries are crisp: observe (2.^e) lands at le=2^e, the next
   representable value above lands at le=2^(e+1). *)
let max_exponent = 62

let bucket_exponent v =
  let rec go e bound =
    if v <= bound || e >= max_exponent then e else go (e + 1) (bound *. 2.0)
  in
  go 0 1.0

let bucket_le e = Int64.to_float (Int64.shift_left 1L e)

let observe t ?(labels = []) name v =
  if v < 0.0 then invalid_arg "Metrics.observe: negative observation";
  let h =
    find_or_add t.histograms (key ~name ~labels) (fun () ->
        { h_count = 0; h_sum = 0.0; buckets = Hashtbl.create 8 })
  in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  let e = bucket_exponent v in
  Hashtbl.replace h.buckets e
    (1 + Option.value ~default:0 (Hashtbl.find_opt h.buckets e))

(* --- reads --------------------------------------------------------- *)

let counter_value t ?(labels = []) name =
  match Hashtbl.find_opt t.counters (key ~name ~labels) with
  | Some c -> !c
  | None -> 0

let gauge_value t ?(labels = []) name =
  Option.map ( ! ) (Hashtbl.find_opt t.gauges (key ~name ~labels))

type histogram = { count : int; sum : float; buckets : (float * int) list }

let histogram t ?(labels = []) name =
  Option.map
    (fun (h : hist) ->
      let buckets =
        Hashtbl.fold (fun e n acc -> (e, n) :: acc) h.buckets []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.map (fun (e, n) -> (bucket_le e, n))
      in
      { count = h.h_count; sum = h.h_sum; buckets })
    (Hashtbl.find_opt t.histograms (key ~name ~labels))

let sorted_keys table =
  Hashtbl.fold (fun k _ acc -> k :: acc) table [] |> List.sort compare_key

let names t =
  List.concat
    [ sorted_keys t.counters; sorted_keys t.gauges; sorted_keys t.histograms ]
  |> List.map (fun k -> k.name)
  |> List.sort_uniq String.compare

(* --- merge --------------------------------------------------------- *)

let merge_into ~dst src =
  List.iter
    (fun k ->
      let c = Hashtbl.find src.counters k in
      incr dst ~labels:k.labels ~by:!c k.name)
    (sorted_keys src.counters);
  List.iter
    (fun k -> set_gauge dst ~labels:k.labels k.name !(Hashtbl.find src.gauges k))
    (sorted_keys src.gauges);
  List.iter
    (fun k ->
      let h = Hashtbl.find src.histograms k in
      let d =
        find_or_add dst.histograms k (fun () ->
            { h_count = 0; h_sum = 0.0; buckets = Hashtbl.create 8 })
      in
      d.h_count <- d.h_count + h.h_count;
      d.h_sum <- d.h_sum +. h.h_sum;
      (* lint: sorted — bucket merge is additive, commutative *)
      Hashtbl.iter
        (fun e n ->
          Hashtbl.replace d.buckets e
            (n + Option.value ~default:0 (Hashtbl.find_opt d.buckets e)))
        h.buckets)
    (sorted_keys src.histograms)

(* --- rendering ----------------------------------------------------- *)

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let prom_labels ?extra labels =
  let labels =
    match extra with None -> labels | Some kv -> labels @ [ kv ]
  in
  match labels with
  | [] -> ""
  | kvs ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label_value v))
             kvs)
      ^ "}"

(* One # TYPE line per family name, then every labelled series of that
   family, all in sorted order: no Hashtbl iteration order leaks. *)
let pp_prometheus ppf t =
  let families table typ render =
    let keys = sorted_keys table in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun k ->
        let name = sanitize k.name in
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.replace seen name ();
          Format.fprintf ppf "# TYPE %s %s@." name typ
        end;
        render name k)
      keys
  in
  families t.counters "counter" (fun name k ->
      Format.fprintf ppf "%s%s %d@." name (prom_labels k.labels)
        !(Hashtbl.find t.counters k));
  families t.gauges "gauge" (fun name k ->
      Format.fprintf ppf "%s%s %s@." name (prom_labels k.labels)
        (float_repr !(Hashtbl.find t.gauges k)));
  families t.histograms "histogram" (fun name k ->
      let h = Hashtbl.find t.histograms k in
      let max_e =
        (* lint: sorted — max over keys is commutative *)
        Hashtbl.fold (fun e _ acc -> Stdlib.max e acc) h.buckets 0
      in
      let cumulative = ref 0 in
      for e = 0 to max_e do
        cumulative :=
          !cumulative + Option.value ~default:0 (Hashtbl.find_opt h.buckets e);
        Format.fprintf ppf "%s_bucket%s %d@." name
          (prom_labels k.labels ~extra:("le", Printf.sprintf "%.0f" (bucket_le e)))
          !cumulative
      done;
      Format.fprintf ppf "%s_bucket%s %d@." name
        (prom_labels k.labels ~extra:("le", "+Inf"))
        h.h_count;
      Format.fprintf ppf "%s_sum%s %s@." name (prom_labels k.labels)
        (float_repr h.h_sum);
      Format.fprintf ppf "%s_count%s %d@." name (prom_labels k.labels)
        h.h_count)
