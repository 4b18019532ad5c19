let levels = 4
let bits_per_level = 9
let stage2_levels = 4

type node = {
  ipa_page : int; (* the guest page holding this table *)
  entries : (int, entry) Hashtbl.t;
}

and entry = Table of node | Page of int (* ipa_page of the mapping *)

type t = { root : node; mutable next_table_page : int }

let create ~table_base_ipa_page =
  if table_base_ipa_page < 0 then
    invalid_arg "Stage1.create: negative table base";
  {
    root = { ipa_page = table_base_ipa_page; entries = Hashtbl.create 8 };
    next_table_page = table_base_ipa_page + 1;
  }

let index ~va_page ~level =
  (* Level 0 is the root: it consumes the top 9 bits of the page number. *)
  let shift = bits_per_level * (levels - 1 - level) in
  (va_page lsr shift) land ((1 lsl bits_per_level) - 1)

let alloc_node t =
  let page = t.next_table_page in
  t.next_table_page <- page + 1;
  { ipa_page = page; entries = Hashtbl.create 8 }

let map t ~va_page ~ipa_page =
  if va_page < 0 || ipa_page < 0 then invalid_arg "Stage1.map: negative frame";
  let rec go node level =
    let idx = index ~va_page ~level in
    if level = levels - 1 then Hashtbl.replace node.entries idx (Page ipa_page)
    else begin
      let child =
        match Hashtbl.find_opt node.entries idx with
        | Some (Table child) -> child
        | Some (Page _) ->
            invalid_arg "Stage1.map: huge-page entry in the way"
        | None ->
            let child = alloc_node t in
            Hashtbl.replace node.entries idx (Table child);
            child
      in
      go child (level + 1)
    end
  in
  go t.root 0

exception Translation_fault of Addr.va

let table_pages t =
  let rec collect node acc =
    Hashtbl.fold
      (fun _ entry acc ->
        match entry with Table child -> collect child acc | Page _ -> acc)
      node.entries (node.ipa_page :: acc)
  in
  List.sort_uniq Int.compare (collect t.root [])

let walk_2d t stage2 va =
  let accesses = ref 0 in
  (* Reading anything at an IPA first walks stage-2 (4 accesses), then
     touches the datum itself. *)
  let read_through_stage2 ipa =
    accesses := !accesses + stage2_levels;
    let pa = Stage2.translate stage2 ipa in
    incr accesses;
    pa
  in
  let va_page = Addr.va_page va in
  let rec go node level =
    (* The walker fetches this level's descriptor from guest memory. *)
    let descriptor_ipa = Addr.ipa_of_page node.ipa_page in
    ignore (read_through_stage2 descriptor_ipa);
    match Hashtbl.find_opt node.entries (index ~va_page ~level) with
    | Some (Page ipa_page) when level = levels - 1 ->
        (* Final data access: one more stage-2 walk for the payload IPA
           (the datum itself is the program's access, not the walker's). *)
        let ipa =
          Addr.ipa
            ((ipa_page * Addr.page_size) + (Addr.va_to_int va mod Addr.page_size))
        in
        accesses := !accesses + stage2_levels;
        Stage2.translate stage2 ipa
    | Some (Table child) when level < levels - 1 -> go child (level + 1)
    | Some _ | None -> raise (Translation_fault va)
  in
  let pa = go t.root 0 in
  (pa, !accesses)

let native_walk_accesses = levels
