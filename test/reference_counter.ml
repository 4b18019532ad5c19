(* One mutable cell per name, so updating a touched counter is a single
   probe with no allocation. *)
type set = (string, int ref) Hashtbl.t

let create_set () : set = Hashtbl.create 32

let add set name n =
  match Hashtbl.find set name with
  | cell -> cell := !cell + n
  | exception Not_found -> Hashtbl.add set name (ref n)

let incr set name = add set name 1

let get set name =
  match Hashtbl.find_opt set name with Some cell -> !cell | None -> 0

let names set =
  Hashtbl.fold (fun name _ acc -> name :: acc) set []
  |> List.sort String.compare

let reset = Hashtbl.reset
