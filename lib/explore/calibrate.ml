module Rng = Armvirt_engine.Rng
module Runner = Armvirt_core.Runner

type result = {
  best : Space.point;
  best_value : float;
  evaluations : int;  (** Distinct points actually simulated. *)
  sweeps : int;  (** Coordinate-descent sweeps across all restarts. *)
  restart_bests : (Space.point * float) list;
      (** Per-restart optimum, in restart order. *)
}

let better (dir : Objective.direction) a b =
  match dir with Objective.Min -> a < b | Objective.Max -> a > b

(* Every candidate a restart can visit sits on the axis level grid, so
   the memo key is just the printed point. *)
let point_key = Space.point_to_string

let random_point rng (space : Space.t) : Space.point =
  List.map
    (fun (a : Space.axis) ->
      let lv = Space.levels a in
      (a.Space.name, List.nth lv (Rng.int rng ~bound:(List.length lv))))
    space

(* Knobs validate one by one, but for the fleet VCPU budget, which
   grows with both fleet.vms and fleet.vcpus; the point at every int
   axis's largest level is where a search would pass it first. *)
let check_points (space : Space.t) =
  let largest (a : Space.axis) =
    let lv = Space.levels a in
    List.fold_left
      (fun best v ->
        match (best, v) with
        | Space.Int b, Space.Int n when n > b -> v
        | _ -> best)
      (List.hd lv) lv
  in
  List.map (fun (a : Space.axis) -> (a.Space.name, largest a)) space
  :: Sampler.points Sampler.Oat ~seed:0 space

let set_axis point name v =
  List.map (fun (k, v0) -> if k = name then (k, v) else (k, v0)) point

let search ?(restarts = 3) ?(max_sweeps = 8) ?(seed = 42) ?jobs ?start ~base
    ~(objective : Objective.t) (space : Space.t) =
  if restarts < 1 then invalid_arg "Calibrate.search: restarts < 1";
  if max_sweeps < 1 then invalid_arg "Calibrate.search: max_sweeps < 1";
  let memo : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let evaluations = ref 0 in
  let sweeps = ref 0 in
  (* Evaluate a batch of points, fanning only memo misses out through the
     runner; the memo is filled in input order, so results never depend
     on domain scheduling. *)
  let eval_batch points =
    let misses =
      List.filter
        (fun p -> not (Hashtbl.mem memo (point_key p)))
        (List.sort_uniq compare points)
    in
    let values =
      Runner.map ?jobs
        (fun p -> objective.Objective.eval (Config.apply_point base p))
        misses
    in
    List.iter2
      (fun p v ->
        incr evaluations;
        Hashtbl.replace memo (point_key p) v)
      misses values;
    List.map (fun p -> Hashtbl.find memo (point_key p)) points
  in
  let eval1 p = List.hd (eval_batch [ p ]) in
  let descend start_point =
    let current = ref start_point in
    let current_v = ref (eval1 start_point) in
    let improved = ref true in
    let budget = ref max_sweeps in
    while !improved && !budget > 0 do
      improved := false;
      decr budget;
      incr sweeps;
      List.iter
        (fun (a : Space.axis) ->
          let candidates =
            List.map (fun v -> set_axis !current a.Space.name v) (Space.levels a)
          in
          let values = eval_batch candidates in
          List.iter2
            (fun p v ->
              if better objective.Objective.direction v !current_v then begin
                current := p;
                current_v := v;
                improved := true
              end)
            candidates values)
        space
    done;
    (!current, !current_v)
  in
  let rng = Rng.create ~seed in
  let restart_starts =
    List.init restarts (fun i ->
        match (i, start) with
        | 0, Some p -> p
        | 0, None ->
            (* Default first start: each axis at its first level. *)
            List.map
              (fun (a : Space.axis) -> (a.Space.name, List.hd (Space.levels a)))
              space
        | _ -> random_point rng space)
  in
  let restart_bests = List.map descend restart_starts in
  let best, best_value =
    match restart_bests with
    | first :: rest ->
        List.fold_left
          (fun (bp, bv) (p, v) ->
            if better objective.Objective.direction v bv then (p, v)
            else (bp, bv))
          first rest
    | [] -> assert false
  in
  { best; best_value; evaluations = !evaluations; sweeps = !sweeps;
    restart_bests }
