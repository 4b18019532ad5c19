type align = Left | Right
type column = { head : string list; width : int; align : align }

type t = {
  title : string list;
  rule : int;
  columns : column list;
  rows : string list list;
  notes : string list;
}

let v ?(title = []) ?(rule = 0) ?(notes = []) columns rows =
  let n = List.length columns in
  List.iter
    (fun row ->
      if List.length row <> n then
        invalid_arg
          (Printf.sprintf "Table.v: a row of %d cells under %d columns"
             (List.length row) n))
    rows;
  { title; rule; columns; rows; notes }

let left width head = { head = [ head ]; width; align = Left }
let right width head = { head = [ head ]; width; align = Right }
let heads = List.map (left 0)
let line ppf s = Format.fprintf ppf "%s@." s

let pad c cell =
  let fill = String.make (max 0 (c.width - String.length cell)) ' ' in
  match c.align with Left -> cell ^ fill | Right -> fill ^ cell

let float fmt x = if Float.is_finite x then Printf.sprintf fmt x else "-"

let text ppf t =
  let rule () = if t.rule > 0 then line ppf (String.make t.rule '-') in
  let row cells = line ppf (String.concat " " (List.map2 pad t.columns cells)) in
  List.iter (line ppf) t.title;
  rule ();
  if List.exists (fun c -> List.exists (( <> ) "") c.head) t.columns then begin
    (* A head shorter than the deepest is blank on its top lines. *)
    let depth =
      List.fold_left (fun d c -> max d (List.length c.head)) 0 t.columns
    in
    for i = 0 to depth - 1 do
      row
        (List.map
           (fun c ->
             let k = i - depth + List.length c.head in
             if k < 0 then "" else List.nth c.head k)
           t.columns)
    done;
    rule ()
  end;
  List.iter row t.rows;
  rule ();
  List.iter (line ppf) t.notes

let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let header t =
  List.map
    (fun c -> String.concat " " (List.filter (( <> ) "") c.head))
    t.columns

let csv ppf t =
  List.iter
    (fun cells -> line ppf (String.concat "," (List.map csv_field cells)))
    (header t :: t.rows)

(* A markdown row is one line: line breaks in a cell become spaces. *)
let md_field s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s
  |> String.split_on_char '|' |> String.concat "\\|"

let markdown ppf t =
  let row cells =
    line ppf ("| " ^ String.concat " | " (List.map md_field cells) ^ " |")
  in
  row (header t);
  line ppf ("|" ^ String.concat "" (List.map (fun _ -> "---|") t.columns));
  List.iter row t.rows
