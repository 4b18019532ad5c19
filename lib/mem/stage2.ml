type perm = Read_only | Read_write

type fault = Unmapped of Addr.ipa | Permission of Addr.ipa

exception Stage2_fault of fault

type entry = { pa_page : int; perm : perm }

type t = { table : (int, entry) Hashtbl.t }

let create () = { table = Hashtbl.create 256 }

let map t ~ipa_page ~pa_page perm =
  if ipa_page < 0 || pa_page < 0 then
    invalid_arg "Stage2.map: negative page frame";
  Hashtbl.replace t.table ipa_page { pa_page; perm }

let unmap t ~ipa_page = Hashtbl.remove t.table ipa_page

let lookup t ipa =
  match Hashtbl.find_opt t.table (Addr.ipa_page ipa) with
  | None -> raise (Stage2_fault (Unmapped ipa))
  | Some entry -> entry

let pa_of entry ipa =
  Addr.pa_add (Addr.pa_of_page entry.pa_page) (Addr.ipa_offset ipa)

let translate t ipa = pa_of (lookup t ipa) ipa

let translate_write t ipa =
  let entry = lookup t ipa in
  match entry.perm with
  | Read_only -> raise (Stage2_fault (Permission ipa))
  | Read_write -> pa_of entry ipa

let translate_opt t ipa =
  match Hashtbl.find_opt t.table (Addr.ipa_page ipa) with
  | None -> None
  | Some entry -> Some (pa_of entry ipa)

let mapped t ~ipa_page = Hashtbl.mem t.table ipa_page

let permission t ~ipa_page =
  Option.map (fun e -> e.perm) (Hashtbl.find_opt t.table ipa_page)

let mapping_count t = Hashtbl.length t.table

let iter t f =
  let entries =
    Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.table []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.iter (fun (ipa_page, e) -> f ~ipa_page ~pa_page:e.pa_page e.perm) entries

let pp_fault ppf = function
  | Unmapped ipa -> Format.fprintf ppf "stage-2 unmapped at %a" Addr.pp_ipa ipa
  | Permission ipa ->
      Format.fprintf ppf "stage-2 permission fault at %a" Addr.pp_ipa ipa
