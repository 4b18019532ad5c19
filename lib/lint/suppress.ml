(* Suppression directives are ordinary comments in the linted source:

     (* lint: sorted *)            audited R3 site (order cannot escape)
     (* lint: unit us reason *)    audited U1/U2 site (asserted unit)
     (* lint: allow R6 reason *)   audited site for any rule
     (* lint: disable R2 R7 *)     disable rules for the whole file

   A site directive suppresses findings on the line its comment starts
   on and on the line directly below, so it can sit at the end of the
   offending line or on its own line above. Only comments count: they
   come from the lexer that parsed the file, so a marker in a string
   literal is text, not a directive. *)

type directive = { line : int; rules : Rules.id list; file_wide : bool }

type t = directive list

let prefix = "lint:"

let tokens_of body =
  String.map (function '\n' | '\r' | '\t' | ',' -> ' ' | c -> c) body
  |> String.split_on_char ' '
  |> List.filter (fun s -> s <> "")

let of_comment (text, (loc : Location.t)) =
  let text = String.trim text in
  if not (String.starts_with ~prefix text) then None
  else
    let line = loc.loc_start.pos_lnum in
    let plen = String.length prefix in
    match tokens_of (String.sub text plen (String.length text - plen)) with
    | "sorted" :: _ -> Some { line; rules = [ Rules.R3 ]; file_wide = false }
    | "unit" :: _ :: _ ->
        (* The asserted unit token is documentation for the auditor; any
           nonempty token is accepted. *)
        Some { line; rules = [ Rules.U1; Rules.U2 ]; file_wide = false }
    | (("allow" | "disable") as verb) :: ids ->
        let rules = List.filter_map Rules.of_string ids in
        if rules = [] then None
        else Some { line; rules; file_wide = verb = "disable" }
    | _ -> None

let of_comments comments = List.filter_map of_comment comments

let file_disabled t rule =
  List.exists (fun d -> d.file_wide && List.mem rule d.rules) t

let allowed t rule ~line =
  List.exists
    (fun d ->
      (not d.file_wide)
      && List.mem rule d.rules
      && (d.line = line || d.line = line - 1))
    t
