module Export = Armvirt_obs.Export
module Json = Armvirt_obs.Json

type format = Text | Csv | Json

let format_of_string = function
  | "text" -> Some Text
  | "csv" -> Some Csv
  | "json" -> Some Json
  | _ -> None

type status = Fresh | Grandfathered

let status_to_string = function
  | Fresh -> "fresh"
  | Grandfathered -> "grandfathered"

type pass_stat = {
  pass : string;
  pass_rules : Rules.id list;
  duration_ms : float;  (* diagnostic; excluded from byte-compared goldens *)
  pass_findings : int;  (* post-suppression findings from this pass *)
}

type t = {
  root : string;
  files_scanned : int;
  suppressed : int;
  passes : pass_stat list;
  findings : (Engine.finding * status) list;
      (* sorted by (file, line, col, rule) *)
  stale : Baseline.entry list;
}

let fresh t = List.filter_map (function f, Fresh -> Some f | _ -> None) t.findings

let grandfathered t =
  List.filter_map (function f, Grandfathered -> Some f | _ -> None) t.findings

(* Exit is clean when nothing is fresh and the baseline has no residue;
   grandfathered findings warn without failing. *)
let clean t = fresh t = [] && t.stale = []

let of_findings ?(passes = []) ~root ~files_scanned ~suppressed findings =
  {
    root;
    files_scanned;
    suppressed;
    passes;
    findings = List.map (fun f -> (f, Fresh)) findings;
    stale = [];
  }

let finding_tag (f : Engine.finding) = function
  | Fresh -> Rules.severity_to_string (Rules.severity f.rule)
  | Grandfathered -> "grandfathered"

let render_text t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun ((f : Engine.finding), status) ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d:%d: %s[%s] %s\n  hint: %s\n" f.file f.line
           f.col (finding_tag f status) (Rules.to_string f.rule) f.message
           (Rules.hint f.rule)))
    t.findings;
  List.iter
    (fun (e : Baseline.entry) ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s: stale[%s] baseline grandfathers %d finding%s the tree no \
            longer produces\n\
           \  hint: commit the shrunken baseline (--update-baseline)\n"
           e.Baseline.file
           (Rules.to_string e.Baseline.rule)
           e.Baseline.count
           (if e.Baseline.count = 1 then "" else "s")))
    t.stale;
  let nfresh = List.length (fresh t) in
  let ngrand = List.length (grandfathered t) in
  Buffer.add_string buf
    (Printf.sprintf
       "armvirt-lint: %d files scanned, %d finding%s (%d grandfathered, %d \
        suppressed, %d stale)\n"
       t.files_scanned nfresh
       (if nfresh = 1 then "" else "s")
       ngrand t.suppressed (List.length t.stale));
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "  pass %-12s %3d finding%s in %.1f ms\n" p.pass
           p.pass_findings
           (if p.pass_findings = 1 then " " else "s")
           p.duration_ms))
    t.passes;
  Buffer.contents buf

let render_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "file,line,col,rule,severity,status,message\n";
  List.iter
    (fun ((f : Engine.finding), status) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%s,%s,%s,%s\n"
           (Export.escape_csv f.file) f.line f.col (Rules.to_string f.rule)
           (Rules.severity_to_string (Rules.severity f.rule))
           (status_to_string status)
           (Export.escape_csv f.message)))
    t.findings;
  Buffer.contents buf

(* Schema v2 (stable; consumed by CI artifacts and external tooling):
   { "version": 2, "root": str, "files_scanned": int, "suppressed": int,
     "passes": [ { "name": str, "rules": ["R1", ...], "duration_ms": float,
                   "findings": int } ],
     "baseline": { "fresh": int, "grandfathered": int, "stale": int },
     "findings": [ { "file": str, "line": int, "col": int,
                     "rule": "R1".."D1", "pass": str,
                     "severity": "error"|"warning",
                     "status": "fresh"|"grandfathered",
                     "message": str, "hint": str } ] }
   Findings are sorted by (file, line, col, rule); key order is fixed.
   "duration_ms" is the one diagnostic field: everything else is a pure
   function of the tree. v1 (no "passes"/"baseline"/"status") retired
   with the single-pass engine. *)
let render_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"version\": 2,\n  \"root\": \"%s\",\n  \"files_scanned\": %d,\n\
       \  \"suppressed\": %d,\n  \"passes\": [" (Json.escape t.root)
       t.files_scanned t.suppressed);
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"name\": \"%s\", \"rules\": [%s], \"duration_ms\": \
            %.3f, \"findings\": %d }"
           (Json.escape p.pass)
           (String.concat ", "
              (List.map
                 (fun r -> Printf.sprintf "\"%s\"" (Rules.to_string r))
                 p.pass_rules))
           p.duration_ms p.pass_findings))
    t.passes;
  if t.passes <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf
    (Printf.sprintf
       "],\n  \"baseline\": { \"fresh\": %d, \"grandfathered\": %d, \
        \"stale\": %d },\n  \"findings\": ["
       (List.length (fresh t))
       (List.length (grandfathered t))
       (List.length t.stale));
  List.iteri
    (fun i ((f : Engine.finding), status) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \
            \"%s\", \"pass\": \"%s\", \"severity\": \"%s\", \"status\": \
            \"%s\", \"message\": \"%s\", \"hint\": \"%s\" }"
           (Json.escape f.file) f.line f.col (Rules.to_string f.rule)
           (Engine.pass_of_rule f.rule)
           (Rules.severity_to_string (Rules.severity f.rule))
           (status_to_string status)
           (Json.escape f.message)
           (Json.escape (Rules.hint f.rule))))
    t.findings;
  if t.findings <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "]\n}\n";
  Buffer.contents buf

let render format t =
  match format with
  | Text -> render_text t
  | Csv -> render_csv t
  | Json -> render_json t
