type perm = Read_only | Read_write

type fault = Unmapped of Addr.ipa | Permission of Addr.ipa

exception Stage2_fault of fault

(* The level-3 tables of a 4 KB-granule stage-2 walk: 512 PTEs, 9 index
   bits, as [Stage1.bits_per_level]. *)
let leaf_bits = 9
let leaf_size = 1 lsl leaf_bits
let leaf_mask = leaf_size - 1

(* A PTE is an immediate int: [invalid], or [pa_page lsl 1] with bit 0
   set when the page is writable. *)
let invalid = -1
let max_pa_page = max_int lsr 1

(* [index] is [ipa_page lsr leaf_bits] for every page the leaf holds. *)
type leaf = { index : int; ptes : int array }

type t = {
  leaves : (int, leaf) Hashtbl.t;
  mutable last : leaf;  (* the leaf found last, or [no_leaf] *)
  mutable count : int;
}

(* Stands for every absent leaf: its PTEs are all invalid and are never
   written, and its index matches no key ([lsr] keeps keys
   non-negative). *)
let no_leaf = { index = -1; ptes = Array.make leaf_size invalid }

let create () = { leaves = Hashtbl.create 8; last = no_leaf; count = 0 }

(* [Not_found] only for a 2 MiB region with no leaf at all; a lookup that
   finds its leaf allocates nothing. *)
let find t key =
  let last = t.last in
  if last.index = key then last
  else
    match Hashtbl.find t.leaves key with
    | leaf ->
        t.last <- leaf;
        leaf
    | exception Not_found -> no_leaf

let pte t ipa_page =
  (find t (ipa_page lsr leaf_bits)).ptes.(ipa_page land leaf_mask)

let map t ~ipa_page ~pa_page perm =
  if ipa_page < 0 || pa_page < 0 then
    invalid_arg "Stage2.map: negative page frame";
  if pa_page > max_pa_page then invalid_arg "Stage2.map: page frame too large";
  let key = ipa_page lsr leaf_bits in
  let leaf = find t key in
  let leaf =
    if leaf != no_leaf then leaf
    else begin
      let leaf = { index = key; ptes = Array.make leaf_size invalid } in
      Hashtbl.replace t.leaves key leaf;
      t.last <- leaf;
      leaf
    end
  in
  let i = ipa_page land leaf_mask in
  if leaf.ptes.(i) = invalid then t.count <- t.count + 1;
  leaf.ptes.(i) <-
    (pa_page lsl 1) lor match perm with Read_only -> 0 | Read_write -> 1

let unmap t ~ipa_page =
  let leaf = find t (ipa_page lsr leaf_bits) in
  let i = ipa_page land leaf_mask in
  if leaf.ptes.(i) <> invalid then begin
    leaf.ptes.(i) <- invalid;
    t.count <- t.count - 1
  end

let pa_of pte ipa =
  Addr.pa_add (Addr.pa_of_page (pte lsr 1)) (Addr.ipa_offset ipa)

let translate t ipa =
  let pte = pte t (Addr.ipa_page ipa) in
  if pte = invalid then raise (Stage2_fault (Unmapped ipa));
  pa_of pte ipa

let translate_write t ipa =
  let pte = pte t (Addr.ipa_page ipa) in
  if pte = invalid then raise (Stage2_fault (Unmapped ipa));
  if pte land 1 = 0 then raise (Stage2_fault (Permission ipa));
  pa_of pte ipa

let translate_opt t ipa =
  let pte = pte t (Addr.ipa_page ipa) in
  if pte = invalid then None else Some (pa_of pte ipa)

let mapped t ~ipa_page = pte t ipa_page <> invalid

let some_read_only = Some Read_only
let some_read_write = Some Read_write

let permission t ~ipa_page =
  let pte = pte t ipa_page in
  if pte = invalid then None
  else if pte land 1 = 0 then some_read_only
  else some_read_write

let mapping_count t = t.count

let iter t f =
  (* Copy the leaves first, so [f] may map and unmap and still sees the
     table as it was. *)
  let leaves =
    Hashtbl.fold (fun _ leaf acc -> leaf :: acc) t.leaves []
    |> List.sort (fun a b -> Int.compare a.index b.index)
    |> List.map (fun leaf -> { leaf with ptes = Array.copy leaf.ptes })
  in
  List.iter
    (fun leaf ->
      let base = leaf.index lsl leaf_bits in
      Array.iteri
        (fun i pte ->
          if pte <> invalid then
            f ~ipa_page:(base + i) ~pa_page:(pte lsr 1)
              (if pte land 1 = 0 then Read_only else Read_write))
        leaf.ptes)
    leaves

let pp_fault ppf = function
  | Unmapped ipa -> Format.fprintf ppf "stage-2 unmapped at %a" Addr.pp_ipa ipa
  | Permission ipa ->
      Format.fprintf ppf "stage-2 permission fault at %a" Addr.pp_ipa ipa
