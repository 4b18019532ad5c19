(* The multi-pass analysis engine: parse one compilation unit with
   compiler-libs, then run every registered pass whose rules are active
   for the file, timing each. Suppression directives are applied once
   over the union of all passes' candidate findings. *)

type finding = Pass.finding = {
  rule : Rules.id;
  file : string;
  line : int;
  col : int;
  message : string;
}

type result = {
  findings : finding list;
  suppressed : int;
  timings : (string * float) list;
      (* (pass name, seconds spent on this file), registration order *)
}

exception Parse_error of string

let compare_finding = Pass.compare_finding

(* Registration order is report order; a pass declares the rules it can
   emit and is skipped entirely when none of them apply to the file. *)
let passes : Pass.t list =
  [ Determinism.pass; Units.pass; Capture.pass ]

let pass_of_rule rule =
  match List.find_opt (fun p -> List.mem rule p.Pass.rules) passes with
  | Some p -> p.Pass.name
  | None -> "?"

(* --- entry point ------------------------------------------------------ *)

let parse ~relpath source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf relpath;
  try
    if Filename.check_suffix relpath ".mli" then
      Pass.Intf (Parse.interface lexbuf)
    else Pass.Impl (Parse.implementation lexbuf)
  with exn ->
    raise
      (Parse_error (Printf.sprintf "%s: %s" relpath (Printexc.to_string exn)))

(* Host wall-clock, for the per-pass diagnostic timings in the v2
   report; never part of a byte-compared artifact. *)
let default_clock () = Sys.time () (* lint: allow R2 pass-timing diagnostics *)

let lint_source ?(rules = Rules.all) ?(clock = default_clock) ~relpath source
    =
  let sup = Suppress.of_source source in
  let active =
    List.filter (fun r -> not (Suppress.file_disabled sup r)) rules
  in
  let ctx = { Pass.relpath; active; raw = [] } in
  let ast = parse ~relpath source in
  let timings =
    List.filter_map
      (fun (p : Pass.t) ->
        if Pass.relevant p ctx then begin
          let t0 = clock () in
          p.Pass.run ctx ast;
          Some (p.Pass.name, clock () -. t0)
        end
        else None)
      passes
  in
  let suppressed, findings =
    List.partition
      (fun (f : finding) -> Suppress.allowed sup f.rule ~line:f.line)
      ctx.Pass.raw
  in
  {
    findings = List.sort compare_finding findings;
    suppressed = List.length suppressed;
    timings;
  }
