let check_dims ~dirs rows =
  let k = List.length dirs in
  List.iteri
    (fun i row ->
      if Array.length row <> k then
        invalid_arg
          (Printf.sprintf
             "Pareto.frontier: row %d has %d objectives, expected %d" i
             (Array.length row) k))
    rows

(* [a] dominates [b]: no worse on every objective, strictly better on at
   least one. Equal rows dominate in neither direction. *)
let dominates ~dirs a b =
  let no_worse = ref true and strictly_better = ref false in
  List.iteri
    (fun i dir ->
      let better, worse =
        match (dir : Objective.direction) with
        | Objective.Min -> (a.(i) < b.(i), a.(i) > b.(i))
        | Objective.Max -> (a.(i) > b.(i), a.(i) < b.(i))
      in
      if worse then no_worse := false;
      if better then strictly_better := true)
    dirs;
  !no_worse && !strictly_better

let frontier ~dirs rows =
  if dirs = [] then invalid_arg "Pareto.frontier: no objectives";
  check_dims ~dirs rows;
  let arr = Array.of_list rows in
  let n = Array.length arr in
  (* A point with an undefined objective ranks against nothing: it is
     never on the frontier and pushes no other point off it. *)
  let defined = Array.map (Array.for_all Float.is_finite) arr in
  List.filter
    (fun i ->
      let dominated =
        let rec any j =
          j < n
          && ((j <> i && defined.(j) && dominates ~dirs arr.(j) arr.(i))
             || any (j + 1))
        in
        any 0
      in
      (* Keep-first among exact duplicates: later copies add nothing. *)
      let duplicate_of_earlier =
        let rec any j = j < i && (arr.(j) = arr.(i) || any (j + 1)) in
        any 0
      in
      defined.(i) && (not dominated) && not duplicate_of_earlier)
    (List.init n Fun.id)
