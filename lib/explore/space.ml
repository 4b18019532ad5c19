type value = Int of int | Float of float | Bool of bool | Choice of string

type spec =
  | Int_range of { lo : int; hi : int; step : int }
  | Float_range of { lo : float; hi : float; step : float }
  | Levels of value list

type axis = { name : string; spec : spec }
type t = axis list
type point = (string * value) list

let validate_spec name = function
  | Int_range { lo; hi; step } ->
      if step <= 0 then
        invalid_arg (Printf.sprintf "Space.axis %s: step <= 0" name);
      if lo > hi then
        invalid_arg (Printf.sprintf "Space.axis %s: lo > hi" name)
  | Float_range { lo; hi; step } ->
      if step <= 0. then
        invalid_arg (Printf.sprintf "Space.axis %s: step <= 0" name);
      if lo > hi then
        invalid_arg (Printf.sprintf "Space.axis %s: lo > hi" name)
  | Levels [] -> invalid_arg (Printf.sprintf "Space.axis %s: no levels" name)
  | Levels _ -> ()

let axis name spec =
  if name = "" then invalid_arg "Space.axis: empty name";
  validate_spec name spec;
  { name; spec }

let of_axes axes =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen a.name then
        invalid_arg (Printf.sprintf "Space.of_axes: duplicate axis %s" a.name);
      Hashtbl.add seen a.name ())
    axes;
  if axes = [] then invalid_arg "Space.of_axes: empty space";
  axes

let levels a =
  match a.spec with
  | Levels vs -> vs
  | Int_range { lo; hi; step } ->
      let rec go v acc = if v > hi then List.rev acc else go (v + step) (Int v :: acc) in
      go lo []
  | Float_range { lo; hi; step } ->
      (* index-based stepping avoids accumulation error; the epsilon admits
         an endpoint that float rounding leaves a hair past [hi]. *)
      let eps = step *. 1e-9 in
      let rec go i acc =
        let v = lo +. (float_of_int i *. step) in
        if v > hi +. eps then List.rev acc else go (i + 1) (Float v :: acc)
      in
      go 0 []

let size t =
  List.fold_left (fun acc a -> acc * List.length (levels a)) 1 t

let max_levels = 10_000

(* Counted without materializing the axis; past [max_levels] the count
   is [max_levels + 1]. *)
let level_count a =
  match a.spec with
  | Levels vs -> List.length vs
  | Int_range { lo; hi; step } ->
      let span = hi - lo in
      (* [span < 0]: [hi - lo] overflowed. *)
      if span < 0 || span / step >= max_levels then max_levels + 1
      else (span / step) + 1
  | Float_range { lo; hi; step } ->
      if (hi -. lo) /. step >= float_of_int max_levels then max_levels + 1
      else List.length (levels a)

let check t =
  match List.find_opt (fun a -> level_count a > max_levels) t with
  | None -> Ok ()
  | Some a ->
      Error
        (Printf.sprintf "axis %s has more than %d levels" a.name max_levels)

let value_to_string = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b
  | Choice s -> s

let point_to_string (p : point) =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (value_to_string v)) p)

(* {2 Parsing} *)

let parse_value tok =
  match int_of_string_opt tok with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> (
          match bool_of_string_opt tok with
          | Some b -> Bool b
          | None ->
              if tok = "" then invalid_arg "Space.of_string: empty level"
              else Choice tok))

let parse_spec name s =
  match String.split_on_char ':' s with
  | [ lo; hi; step ] -> (
      match
        (int_of_string_opt lo, int_of_string_opt hi, int_of_string_opt step)
      with
      | Some lo, Some hi, Some step -> Int_range { lo; hi; step }
      | _ -> (
          match
            ( float_of_string_opt lo,
              float_of_string_opt hi,
              float_of_string_opt step )
          with
          | Some lo, Some hi, Some step -> Float_range { lo; hi; step }
          | _ ->
              invalid_arg
                (Printf.sprintf "Space.of_string: bad range for %s: %s" name s)
          ))
  | [ _ ] -> Levels (List.map parse_value (String.split_on_char '|' s))
  | _ ->
      invalid_arg
        (Printf.sprintf
           "Space.of_string: %s=%s (want lo:hi:step or v|v|...)" name s)

let of_string s =
  let axes =
    String.split_on_char ',' s
    |> List.filter (fun a -> String.trim a <> "")
    |> List.map (fun binding ->
           match String.index_opt binding '=' with
           | None ->
               invalid_arg
                 (Printf.sprintf "Space.of_string: missing '=' in %S" binding)
           | Some i ->
               let name = String.trim (String.sub binding 0 i) in
               let spec =
                 String.trim
                   (String.sub binding (i + 1) (String.length binding - i - 1))
               in
               axis name (parse_spec name spec))
  in
  of_axes axes

let spec_to_string = function
  | Int_range { lo; hi; step } -> Printf.sprintf "%d:%d:%d" lo hi step
  | Float_range { lo; hi; step } -> Printf.sprintf "%g:%g:%g" lo hi step
  | Levels vs -> String.concat "|" (List.map value_to_string vs)

let to_string t =
  String.concat ","
    (List.map (fun a -> Printf.sprintf "%s=%s" a.name (spec_to_string a.spec)) t)
