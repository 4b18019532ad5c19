module Table = Armvirt_obs.Table
module Json = Armvirt_obs.Json

type format = Text | Csv | Json

type t = {
  root : string;
  files_scanned : int;
  suppressed : int;
  findings : Engine.finding list; (* sorted by (file, line, col, rule) *)
}

let plural n = if n = 1 then "" else "s"

(* One row per registered pass, whether or not path scoping ran it
   anywhere, so the report's shape does not move as the tree changes. *)
let pass_rows t =
  List.map
    (fun (name, rules) ->
      ( name,
        rules,
        List.length
          (List.filter
             (fun (f : Engine.finding) -> List.mem f.Engine.rule rules)
             t.findings) ))
    Engine.passes

let severity (f : Engine.finding) =
  Rules.severity_to_string (Rules.severity f.rule)

let render_text t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (f : Engine.finding) ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d:%d: %s[%s] %s\n  hint: %s\n" f.file f.line
           f.col (severity f) (Rules.to_string f.rule) f.message
           (Rules.hint f.rule)))
    t.findings;
  let n = List.length t.findings in
  Buffer.add_string buf
    (Printf.sprintf
       "armvirt lint: %d files scanned, %d finding%s (%d suppressed)\n"
       t.files_scanned n (plural n) t.suppressed);
  List.iter
    (fun (name, _, count) ->
      Buffer.add_string buf
        (Printf.sprintf "  pass %-12s %3d finding%s\n" name count
           (plural count)))
    (pass_rows t);
  Buffer.contents buf

let render_csv t =
  Format.asprintf "%a" Table.csv
    (Table.v
       (Table.heads [ "file"; "line"; "col"; "rule"; "severity"; "message" ])
       (List.map
          (fun (f : Engine.finding) ->
            [
              f.file; string_of_int f.line; string_of_int f.col;
              Rules.to_string f.rule; severity f; f.message;
            ])
          t.findings))

(* Schema v3 (stable; consumed by CI artifacts and external tooling):
   { "version": 3, "root": str, "files_scanned": int, "suppressed": int,
     "passes": [ { "name": str, "rules": ["R1", ...], "findings": int } ],
     "findings": [ { "file": str, "line": int, "col": int,
                     "rule": "R1".."S1", "pass": str,
                     "severity": "error"|"warning",
                     "message": str, "hint": str } ] }
   Findings are sorted by (file, line, col, rule); key order is fixed and
   every field is a pure function of the tree. *)
let render_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"version\": 3,\n  \"root\": \"%s\",\n  \"files_scanned\": %d,\n\
       \  \"suppressed\": %d,\n  \"passes\": [" (Json.escape t.root)
       t.files_scanned t.suppressed);
  List.iteri
    (fun i (name, rules, count) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"name\": \"%s\", \"rules\": [%s], \"findings\": %d }"
           (Json.escape name)
           (String.concat ", "
              (List.map
                 (fun r -> Printf.sprintf "\"%s\"" (Rules.to_string r))
                 rules))
           count))
    (pass_rows t);
  Buffer.add_string buf "\n  ],\n  \"findings\": [";
  List.iteri
    (fun i (f : Engine.finding) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"file\": \"%s\", \"line\": %d, \"col\": %d, \"rule\": \
            \"%s\", \"pass\": \"%s\", \"severity\": \"%s\", \"message\": \
            \"%s\", \"hint\": \"%s\" }"
           (Json.escape f.file) f.line f.col (Rules.to_string f.rule)
           (Engine.pass_of_rule f.rule) (severity f)
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
