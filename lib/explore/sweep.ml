module Runner = Armvirt_core.Runner
module Table = Armvirt_obs.Table

type t = {
  space : Space.t;
  sampler : Sampler.t;
  seed : int;
  objectives : Objective.t list;
  points : Space.point list;
  values : float array list;  (** Row per point, column per objective. *)
  pareto : int list;
  sensitivity : Sensitivity.ranking list option;
}

let run ?jobs ?(seed = 42) ~base ~sampler ~objectives space =
  if objectives = [] then invalid_arg "Sweep.run: no objectives";
  (* Materialize the full point list serially, then fan out: Runner.map
     merges in input order, so the sweep is identical at any --jobs. *)
  let points = Sampler.points sampler ~seed space in
  if points = [] then invalid_arg "Sweep.run: sampler produced no points";
  let values =
    Runner.map ?jobs
      (fun point ->
        let config = Config.apply_point base point in
        Array.of_list
          (List.map (fun (o : Objective.t) -> o.Objective.eval config) objectives))
      points
  in
  let dirs = List.map (fun (o : Objective.t) -> o.Objective.direction) objectives in
  let pareto = Pareto.frontier ~dirs values in
  let sensitivity =
    match sampler with
    | Sampler.Oat ->
        Some
          (Sensitivity.rank ~points
             ~values:(List.map (fun row -> row.(0)) values))
    | Sampler.Grid | Sampler.Lhs _ -> None
  in
  { space; sampler; seed; objectives; points; values; pareto; sensitivity }

let fmt_float = Table.float "%.6g"

(* One row per point: axis levels, objective values, Pareto flag. *)
let table ?(keep = fun _ _ -> true) t =
  Table.v
    (Table.heads
       (List.map (fun (a : Space.axis) -> a.Space.name) t.space
       @ List.map
           (fun (o : Objective.t) ->
             Printf.sprintf "%s_%s" o.Objective.name o.Objective.unit_)
           t.objectives
       @ [ "pareto" ]))
    (List.filteri keep
       (List.mapi
          (fun i (point, row) ->
            List.map (fun (_, v) -> Space.value_to_string v) point
            @ List.map fmt_float (Array.to_list row)
            @ [ (if List.mem i t.pareto then "1" else "0") ])
          (List.combine t.points t.values)))

let pp_csv ppf t = Table.csv ppf (table t)

let sensitivity rankings =
  Table.v
    (Table.heads [ "axis"; "lo"; "hi"; "span"; "span %" ])
    (List.map
       (fun (r : Sensitivity.ranking) ->
         [
           r.Sensitivity.axis;
           fmt_float r.Sensitivity.lo;
           fmt_float r.Sensitivity.hi;
           fmt_float r.Sensitivity.span;
           fmt_float r.Sensitivity.span_pct;
         ])
       rankings)

let pp_markdown ppf t =
  Format.fprintf ppf "## Design-space sweep@.@.";
  Format.fprintf ppf "- space: `%s`@." (Space.to_string t.space);
  Format.fprintf ppf "- sampler: `%s`, seed %d, %d points@."
    (Sampler.to_string t.sampler) t.seed (List.length t.points);
  Format.fprintf ppf "- objectives: %s@.@."
    (String.concat ", "
       (List.map
          (fun (o : Objective.t) ->
            Printf.sprintf "`%s` (%s, %s)" o.Objective.name o.Objective.unit_
              (match o.Objective.direction with
              | Objective.Min -> "min"
              | Objective.Max -> "max"))
          t.objectives));
  Table.markdown ppf (table t);
  Format.fprintf ppf "@.### Pareto frontier (%d of %d points)@.@."
    (List.length t.pareto) (List.length t.points);
  Table.markdown ppf (table ~keep:(fun i _ -> List.mem i t.pareto) t);
  match t.sensitivity with
  | None -> ()
  | Some rankings ->
      Format.fprintf ppf
        "@.### Sensitivity ranking (objective `%s`)@.@."
        (List.hd t.objectives).Objective.name;
      Table.markdown ppf (sensitivity rankings)
