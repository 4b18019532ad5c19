type domid = int
type gref = int

let gref_to_int r = r

type access = Readonly | Full

type error =
  | Unknown_ref of int
  | Wrong_domain of { expected : domid; actual : domid }
  | Already_mapped of int
  | Not_mapped of int
  | Write_to_readonly of int

exception Grant_error of error

type entry = {
  grantee : domid;
  ipa_page : int;
  access : access;
  mutable mapped : bool;
}

type t = { entries : (int, entry) Hashtbl.t; mutable next_ref : int }

let create () = { entries = Hashtbl.create 64; next_ref = 0 }

let grant t ~to_dom ~ipa_page access =
  if ipa_page < 0 then invalid_arg "Grant_table.grant: negative page frame";
  let gref = t.next_ref in
  t.next_ref <- gref + 1;
  Hashtbl.replace t.entries gref
    { grantee = to_dom; ipa_page; access; mapped = false };
  gref

let find t gref =
  match Hashtbl.find_opt t.entries gref with
  | Some e -> e
  | None -> raise (Grant_error (Unknown_ref gref))

let map t gref ~by =
  let e = find t gref in
  if e.grantee <> by then
    raise (Grant_error (Wrong_domain { expected = e.grantee; actual = by }));
  if e.mapped then raise (Grant_error (Already_mapped gref));
  e.mapped <- true;
  e.ipa_page

let unmap t gref ~by =
  let e = find t gref in
  if e.grantee <> by then
    raise (Grant_error (Wrong_domain { expected = e.grantee; actual = by }));
  if not e.mapped then raise (Grant_error (Not_mapped gref));
  e.mapped <- false

let is_mapped t gref =
  match Hashtbl.find_opt t.entries gref with
  | Some e -> e.mapped
  | None -> false

let access_of t gref =
  Option.map (fun e -> e.access) (Hashtbl.find_opt t.entries gref)

let active_grants t = Hashtbl.length t.entries

let mapped_grants t =
  (* lint: sorted — pure count, commutative *)
  Hashtbl.fold (fun _ e acc -> if e.mapped then acc + 1 else acc) t.entries 0
