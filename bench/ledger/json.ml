(* The JSON the ledger prints, written by hand: the repo carries no JSON
   library. *)

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The shortest decimal that reads back as the same float. Non-finite
   values have no JSON form; callers count them as failures. *)
let num x =
  if not (Float.is_finite x) then "null"
  else
    let short = Printf.sprintf "%.15g" x in
    if Float.equal (float_of_string short) x then short
    else Printf.sprintf "%.17g" x

let obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields)
  ^ "}"

(* A metrics object as the benchmark contract prints it:
   {"name": {"value": v, "unit": u}, ...}. *)
let metrics rows =
  obj
    (List.map
       (fun (name, unit_, value) ->
         (name, obj [ ("value", num value); ("unit", str unit_) ]))
       rows)
