module Cycles = Armvirt_engine.Cycles

type id = int

(* Names map to dense ids once; values live in an int array indexed by
   id, so adding to an interned counter is an array add. [touched] marks
   ids updated since creation or the last [reset]: [names] lists only
   those, whatever was interned. *)
type set = {
  index : (string, id) Hashtbl.t;
  mutable values : int array;
  mutable touched : Bytes.t;
  mutable size : int;
}

let create_set () : set =
  let capacity = 32 in
  {
    index = Hashtbl.create capacity;
    values = Array.make capacity 0;
    touched = Bytes.make capacity '\000';
    size = 0;
  }

let grow set =
  let capacity = 2 * Array.length set.values in
  let values = Array.make capacity 0 in
  Array.blit set.values 0 values 0 set.size;
  set.values <- values;
  let touched = Bytes.make capacity '\000' in
  Bytes.blit set.touched 0 touched 0 set.size;
  set.touched <- touched

let intern set name =
  match Hashtbl.find set.index name with
  | id -> id
  | exception Not_found ->
      if set.size = Array.length set.values then grow set;
      let id = set.size in
      Hashtbl.add set.index name id;
      set.size <- id + 1;
      id

let add_id set id n =
  set.values.(id) <- set.values.(id) + n;
  Bytes.set set.touched id '\001'

let incr_id set id = add_id set id 1
let add set name n = add_id set (intern set name) n
let incr set name = add set name 1

let get set name =
  match Hashtbl.find_opt set.index name with
  | Some id -> set.values.(id)
  | None -> 0

let value set id =
  if Bytes.get set.touched id <> '\000' then Some set.values.(id) else None

let names set =
  Hashtbl.fold
    (fun name id acc ->
      if Bytes.get set.touched id <> '\000' then name :: acc else acc)
    set.index []
  |> List.sort String.compare

let reset set =
  Array.fill set.values 0 set.size 0;
  Bytes.fill set.touched 0 set.size '\000'
