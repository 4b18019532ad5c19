module Rng = Armvirt_engine.Rng

type t = Grid | Lhs of int | Oat

let of_string s =
  match String.split_on_char ':' s with
  | [ "grid" ] -> Grid
  | [ "oat" ] -> Oat
  | [ "lhs"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> Lhs n
      | _ -> invalid_arg (Printf.sprintf "Sampler.of_string: lhs:%s" n))
  | _ ->
      invalid_arg
        (Printf.sprintf "Sampler.of_string: %S (want grid, lhs:N or oat)" s)

let to_string = function
  | Grid -> "grid"
  | Lhs n -> Printf.sprintf "lhs:%d" n
  | Oat -> "oat"

let grid (space : Space.t) : Space.point list =
  let rec go = function
    | [] -> [ [] ]
    | a :: rest ->
        let tails = go rest in
        List.concat_map
          (fun v -> List.map (fun tl -> (a.Space.name, v) :: tl) tails)
          (Space.levels a)
  in
  go space

(* Map a unit-interval draw onto an axis: continuous interpolation for
   float ranges, stratified level pick for everything discrete. *)
let value_at (a : Space.axis) u =
  match a.spec with
  | Space.Float_range { lo; hi; _ } -> Space.Float (lo +. (u *. (hi -. lo)))
  | _ ->
      let lv = Space.levels a in
      let n = List.length lv in
      let i = min (n - 1) (int_of_float (u *. float_of_int n)) in
      List.nth lv i

let latin_hypercube ~seed ~n (space : Space.t) : Space.point list =
  if n < 1 then invalid_arg "Sampler.latin_hypercube: n < 1";
  let rng = Rng.create ~seed in
  (* All randomness is drawn here, serially, in axis order — the point
     list is fixed before any parallel evaluation fan-out, so the same
     seed and space give byte-identical points at any --jobs. *)
  let per_axis =
    List.map
      (fun (a : Space.axis) ->
        let perm = Array.init n Fun.id in
        Rng.shuffle rng perm;
        let vals =
          Array.init n (fun i ->
              let u =
                (float_of_int perm.(i) +. Rng.float rng ~bound:1.0)
                /. float_of_int n
              in
              value_at a u)
        in
        (a.Space.name, vals))
      space
  in
  List.init n (fun i ->
      List.map (fun (name, vals) -> (name, vals.(i))) per_axis)

let one_at_a_time (space : Space.t) : Space.point list =
  let base =
    List.map (fun (a : Space.axis) -> (a.Space.name, List.hd (Space.levels a))) space
  in
  let deviations =
    List.concat_map
      (fun (a : Space.axis) ->
        match Space.levels a with
        | _ :: rest ->
            List.map
              (fun v ->
                List.map
                  (fun (k, v0) -> if k = a.Space.name then (k, v) else (k, v0))
                  base)
              rest
        | [] -> [])
      space
  in
  base :: deviations

let points t ~seed space =
  match t with
  | Grid -> grid space
  | Lhs n -> latin_hypercube ~seed ~n space
  | Oat -> one_at_a_time space

let max_points = 100_000

(* Saturates past [max_points]: a level count is at most
   [Space.max_levels + 1], so no product overflows. *)
let point_count t space =
  match t with
  | Lhs n -> n
  | Grid ->
      List.fold_left
        (fun acc a ->
          if acc > max_points then acc else acc * Space.level_count a)
        1 space
  | Oat ->
      List.fold_left (fun acc a -> acc + Space.level_count a - 1) 1 space

let check t space =
  match Space.check space with
  | Error _ as e -> e
  | Ok () ->
      if point_count t space <= max_points then Ok ()
      else
        Error
          (Printf.sprintf "the %s sampler would evaluate more than %d points"
             (to_string t) max_points)
