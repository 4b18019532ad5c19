(* The multi-pass analysis engine: parse each compilation unit once with
   compiler-libs, then run every registered per-file pass whose rules
   are active for the file; the whole-tree pass reads the same parsed
   units. Suppression directives are applied once over the union of all
   passes' candidate findings. *)

type finding = Pass.finding = {
  rule : Rules.id;
  file : string;
  line : int;
  col : int;
  message : string;
}

type result = { findings : finding list; suppressed : int }

exception Parse_error of string

let compare_finding = Pass.compare_finding

(* Registration order is report order; a pass declares the rules it can
   emit and is skipped entirely when none of them apply to the file. *)
let file_passes : Pass.t list = [ Determinism.pass; Units.pass; Capture.pass ]

(* Every pass with its rules, the whole-tree pass last. *)
let passes =
  List.map (fun (p : Pass.t) -> (p.Pass.name, p.Pass.rules)) file_passes
  @ [ (Exports.name, [ Rules.S1 ]) ]

let pass_of_rule rule =
  fst (List.find (fun (_, rules) -> List.mem rule rules) passes)

(* --- entry points ----------------------------------------------------- *)

type source = { relpath : string; sup : Suppress.t; ast : Pass.ast }

let parse ~relpath text =
  let lexbuf = Lexing.from_string text in
  Lexing.set_filename lexbuf relpath;
  let ast =
    try
      if Filename.check_suffix relpath ".mli" then
        Pass.Intf (Parse.interface lexbuf)
      else Pass.Impl (Parse.implementation lexbuf)
    with exn ->
      raise
        (Parse_error (Printf.sprintf "%s: %s" relpath (Printexc.to_string exn)))
  in
  (* The parse just lexed every comment of the file, and only those. *)
  { relpath; sup = Suppress.of_comments (Lexer.comments ()); ast }

(* Candidates silenced by the directives of the file they sit in are
   counted, the rest reported. *)
let settle ~sup_of raw =
  let suppressed, findings =
    List.partition
      (fun (f : finding) ->
        let sup = sup_of f.file in
        Suppress.file_disabled sup f.rule
        || Suppress.allowed sup f.rule ~line:f.line)
      raw
  in
  {
    findings = List.sort compare_finding findings;
    suppressed = List.length suppressed;
  }

let lint_file ?(rules = Rules.all) src =
  let active =
    List.filter (fun r -> not (Suppress.file_disabled src.sup r)) rules
  in
  let ctx = { Pass.relpath = src.relpath; active; raw = [] } in
  List.iter
    (fun (p : Pass.t) -> if Pass.relevant p ctx then p.Pass.run ctx src.ast)
    file_passes;
  settle ~sup_of:(fun _ -> src.sup) ctx.Pass.raw

let lint_exports sources =
  let raw = Exports.run (List.map (fun s -> (s.relpath, s.ast)) sources) in
  let sup_of file = (List.find (fun s -> s.relpath = file) sources).sup in
  settle ~sup_of raw
