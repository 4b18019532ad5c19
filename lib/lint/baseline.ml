(* The ratchet: a committed LINT_baseline.json grandfathers known
   findings per (file, rule) so new rules can land with the repo still
   gating. Semantics:

   - a finding beyond the baselined count for its (file, rule) is
     FRESH and fails the run;
   - findings within the count are GRANDFATHERED and render as
     warnings;
   - a baselined count higher than what the tree now produces is STALE
     and also fails the run — the baseline may only shrink, and the
     shrink must be committed (--update-baseline writes it).

   Counts rather than line numbers key the ratchet, so unrelated edits
   that shift code do not churn the file. Within one (file, rule) the
   findings sorted by (line, col) fill the grandfathered quota first;
   the attribution is deterministic even if not always the historically
   "same" site, which is the price of line-independence. *)

module Json = Armvirt_obs.Json

type entry = { file : string; rule : Rules.id; count : int }

type t = entry list (* sorted by (file, rule) *)

let version = 1

let compare_entry a b =
  match String.compare a.file b.file with
  | 0 -> String.compare (Rules.to_string a.rule) (Rules.to_string b.rule)
  | c -> c

let empty : t = []

(* --- building from findings ------------------------------------------ *)

let of_findings findings =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Pass.finding) ->
      let key = (f.Pass.file, f.Pass.rule) in
      match Hashtbl.find_opt tbl key with
      | Some r -> incr r
      | None -> Hashtbl.add tbl key (ref 1))
    findings;
  Hashtbl.fold
    (fun (file, rule) count acc -> { file; rule; count = !count } :: acc)
    tbl []
  |> List.sort compare_entry

(* --- the check -------------------------------------------------------- *)

type verdict = {
  fresh : Pass.finding list;
  grandfathered : Pass.finding list;
  stale : entry list;  (* baselined counts the tree no longer produces *)
}

let check (baseline : t) findings =
  let quota = Hashtbl.create 16 in
  List.iter
    (fun e -> Hashtbl.replace quota (e.file, Rules.to_string e.rule) e.count)
    baseline;
  let fresh = ref [] and grandfathered = ref [] in
  List.iter
    (fun (f : Pass.finding) ->
      let key = (f.Pass.file, Rules.to_string f.Pass.rule) in
      match Hashtbl.find_opt quota key with
      | Some n when n > 0 ->
          Hashtbl.replace quota key (n - 1);
          grandfathered := f :: !grandfathered
      | _ -> fresh := f :: !fresh)
    (List.sort
       (fun (a : Pass.finding) b ->
         match String.compare a.Pass.file b.Pass.file with
         | 0 -> Pass.compare_finding a b
         | c -> c)
       findings);
  let stale =
    List.filter_map
      (fun e ->
        match Hashtbl.find_opt quota (e.file, Rules.to_string e.rule) with
        | Some n when n > 0 -> Some { e with count = n }
        | _ -> None)
      baseline
  in
  {
    fresh = List.rev !fresh;
    grandfathered = List.rev !grandfathered;
    stale;
  }

(* --- rendering -------------------------------------------------------- *)

let render (t : t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"version\": %d,\n  \"entries\": [" version);
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    { \"file\": \"%s\", \"rule\": \"%s\", \
                         \"count\": %d }"
           (Json.escape e.file) (Rules.to_string e.rule) e.count))
    t;
  if t <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "]\n}\n";
  Buffer.contents buf

(* --- parsing ---------------------------------------------------------- *)
(* A strict walk over the shared JSON reader's tree, accepting exactly
   the schema [render] emits: unknown keys, unknown rules, negative or
   fractional counts and missing fields are all errors. *)

exception Bad of string

let check_keys ~what allowed = function
  | Json.Obj fields ->
      List.iter
        (fun (k, _) ->
          if not (List.mem k allowed) then
            raise (Bad (Printf.sprintf "unknown %s key %s" what k)))
        fields
  | _ -> raise (Bad (what ^ " is not an object"))

let int_member key j =
  match Json.member key j with
  | Some (Json.Num f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let entry_of_json j =
  check_keys ~what:"entry" [ "file"; "rule"; "count" ] j;
  match (Json.member "file" j, Json.member "rule" j, int_member "count" j) with
  | Some (Json.Str file), Some (Json.Str rule_s), Some count -> (
      match Rules.of_string rule_s with
      | Some rule when count >= 0 -> { file; rule; count }
      | Some _ -> raise (Bad "negative count")
      | None -> raise (Bad ("unknown rule " ^ rule_s)))
  | _ -> raise (Bad "entry missing file/rule/count")

let parse (s : string) : (t, string) result =
  match Json.parse s with
  | Error msg -> Error msg
  | Ok doc -> (
      try
        check_keys ~what:"baseline" [ "version"; "entries" ] doc;
        (match int_member "version" doc with
        | Some v when v = version -> ()
        | Some v -> raise (Bad (Printf.sprintf "unsupported baseline version %d" v))
        | None -> raise (Bad "missing version"));
        match Json.member "entries" doc with
        | Some (Json.Arr entries) ->
            Ok (List.sort compare_entry (List.map entry_of_json entries))
        | _ -> raise (Bad "missing entries")
      with Bad msg -> Error msg)

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let source =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      parse source
