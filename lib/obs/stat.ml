(* Renderers and diff for exit-accounting reports. Deterministic by
   construction: Accounting.t is already ordered, floats print with
   fixed precision, and nothing here consults clocks or hash order. *)

type options = { per_vcpu : bool; per_domain : bool; top : int }

let default_options = { per_vcpu = false; per_domain = false; top = 0 }

let take n l =
  if n <= 0 then l
  else
    let rec go i = function
      | [] -> []
      | x :: tl -> if i >= n then [] else x :: go (i + 1) tl
    in
    go 0 l

let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

(* --- text ------------------------------------------------------------ *)

let pp_hist_cells ppf (h : Accounting.hist) =
  if h.Accounting.count = 0 then
    Format.fprintf ppf "%10s %10s %10s %10s" "-" "-" "-" "-"
  else
    Format.fprintf ppf "%10d %10.1f %10d %10d" h.Accounting.min
      (Accounting.mean h) h.Accounting.max h.Accounting.count

let pp_exit_rows ppf ~indent ~total rows =
  List.iter
    (fun (reason, count, hist) ->
      Format.fprintf ppf "%s%-10s %8d %7.1f%% %a@," indent reason count
        (pct count total) pp_hist_cells hist)
    rows

let render_text ?(opts = default_options) ~context ppf (t : Accounting.t) =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "exit accounting: %s@," context;
  Format.fprintf ppf "%d vm(s), %d exits, guest %d / hypervisor %d cycles@,@,"
    (List.length t.Accounting.vms)
    t.Accounting.total_exits t.Accounting.total_guest t.Accounting.total_hyp;
  List.iter
    (fun (v : Accounting.vm_stats) ->
      Format.fprintf ppf "vm %s/%s hyp=%s@," v.Accounting.cell
        v.Accounting.machine v.Accounting.hyp;
      let vm_exits = List.fold_left (fun s (_, c, _) -> s + c) 0 v.Accounting.exits in
      if v.Accounting.exits <> [] then begin
        Format.fprintf ppf "  %-10s %8s %8s %10s %10s %10s %10s@," "reason"
          "exits" "%exits" "lat_min" "lat_mean" "lat_max" "samples";
        pp_exit_rows ppf ~indent:"  " ~total:vm_exits
          (take opts.top v.Accounting.exits);
        if opts.per_vcpu then
          List.iter
            (fun (pcpu, rows) ->
              Format.fprintf ppf "  pcpu %d:@," pcpu;
              pp_exit_rows ppf ~indent:"    " ~total:vm_exits
                (take opts.top rows))
            v.Accounting.exits_per_pcpu
      end;
      if vm_exits > 0 || v.Accounting.entries > 0 then
        Format.fprintf ppf "  exits %d, entries %d@," vm_exits
          v.Accounting.entries;
      if opts.per_domain && v.Accounting.entries_per_domain <> [] then begin
        Format.fprintf ppf "  entries by domain:";
        List.iter
          (fun (d, n) -> Format.fprintf ppf " d%d=%d" d n)
          v.Accounting.entries_per_domain;
        Format.fprintf ppf "@,"
      end;
      if v.Accounting.ops <> [] then begin
        Format.fprintf ppf "  ops:";
        List.iter
          (fun (op, n) -> Format.fprintf ppf " %s=%d" op n)
          v.Accounting.ops;
        Format.fprintf ppf "@,"
      end;
      let total_cycles = v.Accounting.guest_cycles + v.Accounting.hyp_cycles in
      Format.fprintf ppf
        "  attribution: guest %d (%.1f%%), hypervisor %d (%.1f%%)@,@,"
        v.Accounting.guest_cycles
        (pct v.Accounting.guest_cycles total_cycles)
        v.Accounting.hyp_cycles
        (pct v.Accounting.hyp_cycles total_cycles))
    t.Accounting.vms;
  Format.fprintf ppf "@]@."

(* --- csv ------------------------------------------------------------- *)

let render_csv ?(opts = default_options) ~context:_ ppf (t : Accounting.t) =
  let row kind (v : Accounting.vm_stats) ~pcpu ~name ~count
      (hist : Accounting.hist option) =
    [ kind; v.Accounting.cell; v.Accounting.machine; v.Accounting.hyp; pcpu;
      name; string_of_int count ]
    @
    match hist with
    | None -> [ ""; ""; ""; "" ]
    | Some h ->
        List.map string_of_int
          [ h.Accounting.count; h.Accounting.sum; h.Accounting.min;
            h.Accounting.max ]
  in
  let vm (v : Accounting.vm_stats) =
    List.map
      (fun (reason, count, hist) ->
        row "exit" v ~pcpu:"all" ~name:reason ~count (Some hist))
      (take opts.top v.Accounting.exits)
    @ (if opts.per_vcpu then
         List.concat_map
           (fun (pcpu, rows) ->
             List.map
               (fun (reason, count, hist) ->
                 row "exit" v ~pcpu:(string_of_int pcpu) ~name:reason ~count
                   (Some hist))
               (take opts.top rows))
           v.Accounting.exits_per_pcpu
       else [])
    @ (if opts.per_domain then
         List.map
           (fun (d, n) ->
             row "entry" v ~pcpu:"all" ~name:(Printf.sprintf "d%d" d) ~count:n
               None)
           v.Accounting.entries_per_domain
       else [])
    @ List.map
        (fun (op, n) -> row "op" v ~pcpu:"all" ~name:op ~count:n None)
        v.Accounting.ops
    @ [
        row "attribution" v ~pcpu:"all" ~name:"guest"
          ~count:v.Accounting.guest_cycles None;
        row "attribution" v ~pcpu:"all" ~name:"hypervisor"
          ~count:v.Accounting.hyp_cycles None;
      ]
  in
  Table.csv ppf
    (Table.v
       (Table.heads
          [ "kind"; "cell"; "machine"; "hyp"; "pcpu"; "name"; "count";
            "lat_count"; "lat_sum"; "lat_min"; "lat_max" ])
       (List.concat_map vm t.Accounting.vms))

(* --- json ------------------------------------------------------------ *)

let pp_json_hist ppf (h : Accounting.hist) =
  Format.fprintf ppf
    "{\"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d, \"buckets\": [%s]}"
    h.Accounting.count h.Accounting.sum h.Accounting.min h.Accounting.max
    (String.concat ", "
       (List.map
          (fun (b, n) -> Printf.sprintf "[%d, %d]" b n)
          h.Accounting.buckets))

let pp_json_exits ppf rows =
  Format.fprintf ppf "[";
  List.iteri
    (fun i (reason, count, hist) ->
      if i > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "{\"reason\": \"%s\", \"count\": %d, \"latency\": %a}"
        (Json.escape reason) count pp_json_hist hist)
    rows;
  Format.fprintf ppf "]"

let render_json ?(opts = default_options) ~context ppf (t : Accounting.t) =
  Format.fprintf ppf "{@.";
  Format.fprintf ppf "  \"schema\": \"armvirt.stat/v1\",@.";
  Format.fprintf ppf "  \"context\": \"%s\",@." (Json.escape context);
  Format.fprintf ppf "  \"vms\": [";
  List.iteri
    (fun i (v : Accounting.vm_stats) ->
      if i > 0 then Format.fprintf ppf ",";
      Format.fprintf ppf "@.    {\"cell\": \"%s\", \"machine\": \"%s\", \"hyp\": \"%s\",@."
        (Json.escape v.Accounting.cell)
        (Json.escape v.Accounting.machine)
        (Json.escape v.Accounting.hyp);
      Format.fprintf ppf "     \"entries\": %d,@." v.Accounting.entries;
      (* Emitted only on opt-in and when markers named a domain, so the
         default document stays byte-identical to pre-fleet reports. *)
      if opts.per_domain && v.Accounting.entries_per_domain <> [] then
        Format.fprintf ppf "     \"per_domain\": [%s],@."
          (String.concat ", "
             (List.map
                (fun (d, n) ->
                  Printf.sprintf "{\"domid\": %d, \"entries\": %d}" d n)
                v.Accounting.entries_per_domain));
      Format.fprintf ppf "     \"exits\": %a,@." pp_json_exits
        (take opts.top v.Accounting.exits);
      if opts.per_vcpu then begin
        Format.fprintf ppf "     \"per_pcpu\": [";
        List.iteri
          (fun j (pcpu, rows) ->
            if j > 0 then Format.fprintf ppf ", ";
            Format.fprintf ppf "{\"pcpu\": %d, \"exits\": %a}" pcpu
              pp_json_exits (take opts.top rows))
          v.Accounting.exits_per_pcpu;
        Format.fprintf ppf "],@."
      end;
      Format.fprintf ppf "     \"ops\": [%s],@."
        (String.concat ", "
           (List.map
              (fun (op, n) ->
                Printf.sprintf "{\"op\": \"%s\", \"count\": %d}"
                  (Json.escape op) n)
              v.Accounting.ops));
      Format.fprintf ppf
        "     \"attribution\": {\"guest\": %d, \"hypervisor\": %d}}"
        v.Accounting.guest_cycles v.Accounting.hyp_cycles)
    t.Accounting.vms;
  Format.fprintf ppf "@.  ],@.";
  Format.fprintf ppf
    "  \"totals\": {\"guest\": %d, \"hypervisor\": %d, \"exits\": %d}@."
    t.Accounting.total_guest t.Accounting.total_hyp t.Accounting.total_exits;
  Format.fprintf ppf "}@."

(* --- JSON parsing ----------------------------------------------------- *)

type json = Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json = Json.parse

(* --- diff ------------------------------------------------------------ *)

type thresholds = { count_pct : float; cycles_pct : float }

let default_thresholds = { count_pct = 0.0; cycles_pct = 2.0 }

type finding = {
  path : string;
  old_value : float;
  new_value : float;
  delta_pct : float;
}

let num_member key j =
  match Json.member key j with Some (Num f) -> Some f | _ -> None

let str_member key j =
  match Json.member key j with Some (Str s) -> Some s | _ -> None

let arr_member key j =
  match Json.member key j with Some (Arr l) -> Some l | _ -> None

let delta_pct old_v new_v =
  let base = Float.max (Float.abs old_v) 1.0 in
  100.0 *. Float.abs (new_v -. old_v) /. base

let compare_value findings ~threshold ~path old_v new_v =
  let d = delta_pct old_v new_v in
  if d > threshold then
    findings := { path; old_value = old_v; new_value = new_v; delta_pct = d }
                 :: !findings

let vm_key vm =
  Printf.sprintf "%s/%s/%s"
    (Option.value ~default:"?" (str_member "cell" vm))
    (Option.value ~default:"?" (str_member "machine" vm))
    (Option.value ~default:"?" (str_member "hyp" vm))

let diff ?(thresholds = default_thresholds) old_doc new_doc =
  match (Json.parse old_doc, Json.parse new_doc) with
  | Error e, _ -> Error (Printf.sprintf "old document: %s" e)
  | _, Error e -> Error (Printf.sprintf "new document: %s" e)
  | Ok old_j, Ok new_j -> (
      match (str_member "schema" old_j, str_member "schema" new_j) with
      | Some "armvirt.stat/v1", Some "armvirt.stat/v1" ->
          let findings = ref [] in
          let count_tol_pct = thresholds.count_pct in
          let cycles_tol_pct = thresholds.cycles_pct in
          let check = compare_value findings in
          let diff_exits prefix old_exits new_exits =
            let index l =
              List.filter_map
                (fun e -> Option.map (fun r -> (r, e)) (str_member "reason" e))
                l
            in
            let old_i = index old_exits and new_i = index new_exits in
            let reasons =
              List.sort_uniq String.compare
                (List.map fst old_i @ List.map fst new_i)
            in
            List.iter
              (fun reason ->
                let path field =
                  Printf.sprintf "%s.exit[%s].%s" prefix reason field
                in
                match
                  (List.assoc_opt reason old_i, List.assoc_opt reason new_i)
                with
                | Some o, Some n ->
                    let get k j = Option.value ~default:0.0 (num_member k j) in
                    check ~threshold:count_tol_pct ~path:(path "count") (get "count" o)
                      (get "count" n);
                    let lat k j =
                      match Json.member "latency" j with
                      | Some h -> Option.value ~default:0.0 (num_member k h)
                      | None -> 0.0
                    in
                    check ~threshold:cycles_tol_pct ~path:(path "latency.sum")
                      (lat "sum" o) (lat "sum" n)
                | Some o, None ->
                    let c = Option.value ~default:0.0 (num_member "count" o) in
                    check ~threshold:count_tol_pct ~path:(path "count") c 0.0
                | None, Some n ->
                    let c = Option.value ~default:0.0 (num_member "count" n) in
                    check ~threshold:count_tol_pct ~path:(path "count") 0.0 c
                | None, None -> ())
              reasons
          in
          let diff_vm old_vm new_vm =
            let prefix = Printf.sprintf "vm[%s]" (vm_key old_vm) in
            let get k j = Option.value ~default:0.0 (num_member k j) in
            check ~threshold:count_tol_pct
              ~path:(prefix ^ ".entries")
              (get "entries" old_vm) (get "entries" new_vm);
            (* per_domain is optional (emitted only with --per-domain):
               diff it only when both sides carry it, so opting in on
               one side alone is not a regression. *)
            (match
               (arr_member "per_domain" old_vm, arr_member "per_domain" new_vm)
             with
            | Some old_pd, Some new_pd ->
                let index l =
                  List.filter_map
                    (fun e ->
                      match (num_member "domid" e, num_member "entries" e) with
                      | Some d, Some n -> Some (int_of_float d, n)
                      | _ -> None)
                    l
                in
                let old_i = index old_pd and new_i = index new_pd in
                let domids =
                  List.sort_uniq Int.compare
                    (List.map fst old_i @ List.map fst new_i)
                in
                List.iter
                  (fun d ->
                    let v i = Option.value ~default:0.0 (List.assoc_opt d i) in
                    check ~threshold:count_tol_pct
                      ~path:(Printf.sprintf "%s.per_domain[d%d].entries" prefix d)
                      (v old_i) (v new_i))
                  domids
            | _ -> ());
            diff_exits prefix
              (Option.value ~default:[] (arr_member "exits" old_vm))
              (Option.value ~default:[] (arr_member "exits" new_vm));
            let ops j =
              List.filter_map
                (fun o ->
                  match (str_member "op" o, num_member "count" o) with
                  | Some op, Some c -> Some (op, c)
                  | _ -> None)
                (Option.value ~default:[] (arr_member "ops" j))
            in
            let old_ops = ops old_vm and new_ops = ops new_vm in
            let names =
              List.sort_uniq String.compare
                (List.map fst old_ops @ List.map fst new_ops)
            in
            List.iter
              (fun op ->
                let o = Option.value ~default:0.0 (List.assoc_opt op old_ops) in
                let n = Option.value ~default:0.0 (List.assoc_opt op new_ops) in
                check ~threshold:count_tol_pct
                  ~path:(Printf.sprintf "%s.op[%s]" prefix op)
                  o n)
              names;
            let attr k j =
              match Json.member "attribution" j with
              | Some a -> Option.value ~default:0.0 (num_member k a)
              | None -> 0.0
            in
            check ~threshold:cycles_tol_pct
              ~path:(prefix ^ ".attribution.guest")
              (attr "guest" old_vm) (attr "guest" new_vm);
            check ~threshold:cycles_tol_pct
              ~path:(prefix ^ ".attribution.hypervisor")
              (attr "hypervisor" old_vm) (attr "hypervisor" new_vm)
          in
          let old_vms = Option.value ~default:[] (arr_member "vms" old_j) in
          let new_vms = Option.value ~default:[] (arr_member "vms" new_j) in
          let keyed l = List.map (fun vm -> (vm_key vm, vm)) l in
          let old_k = keyed old_vms and new_k = keyed new_vms in
          let keys =
            List.sort_uniq String.compare (List.map fst old_k @ List.map fst new_k)
          in
          List.iter
            (fun key ->
              match (List.assoc_opt key old_k, List.assoc_opt key new_k) with
              | Some o, Some n -> diff_vm o n
              | Some _, None ->
                  findings :=
                    { path = Printf.sprintf "vm[%s]" key; old_value = 1.0;
                      new_value = 0.0; delta_pct = 100.0 }
                    :: !findings
              | None, Some _ ->
                  findings :=
                    { path = Printf.sprintf "vm[%s]" key; old_value = 0.0;
                      new_value = 1.0; delta_pct = 100.0 }
                    :: !findings
              | None, None -> ())
            keys;
          (match (Json.member "totals" old_j, Json.member "totals" new_j) with
          | Some ot, Some nt ->
              List.iter
                (fun (field, threshold) ->
                  let get j = Option.value ~default:0.0 (num_member field j) in
                  compare_value findings ~threshold
                    ~path:("totals." ^ field) (get ot) (get nt))
                [
                  ("guest", cycles_tol_pct);
                  ("hypervisor", cycles_tol_pct);
                  ("exits", count_tol_pct);
                ]
          | _ -> ());
          Ok (List.rev !findings)
      | _ -> Error "not an armvirt.stat/v1 document")

let pp_findings ppf findings =
  List.iter
    (fun f ->
      Format.fprintf ppf "%s: %g -> %g (%.1f%% delta)@." f.path f.old_value
        f.new_value f.delta_pct)
    findings
