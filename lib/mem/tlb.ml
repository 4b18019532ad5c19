(* Exact LRU in O(1): the table finds an entry, and a circular doubly
   linked recency list through the entries orders them. [sentinel.next] is
   the most recently used entry and [sentinel.prev] the least. *)
type entry = {
  ipa_page : int;
  mutable pa_page : int;
  mutable prev : entry;
  mutable next : entry;
}

type t = {
  capacity : int;
  table : (int, entry) Hashtbl.t;
  sentinel : entry;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Tlb.create: capacity < 1";
  let rec sentinel =
    { ipa_page = -1; pa_page = -1; prev = sentinel; next = sentinel }
  in
  { capacity; table = Hashtbl.create capacity; sentinel; hits = 0; misses = 0 }

let unlink entry =
  entry.prev.next <- entry.next;
  entry.next.prev <- entry.prev

let push_front t entry =
  let first = t.sentinel.next in
  entry.prev <- t.sentinel;
  entry.next <- first;
  first.prev <- entry;
  t.sentinel.next <- entry

let touch t entry =
  unlink entry;
  push_front t entry

let lookup t ~ipa_page =
  match Hashtbl.find_opt t.table ipa_page with
  | Some entry ->
      touch t entry;
      t.hits <- t.hits + 1;
      Some entry.pa_page
  | None ->
      t.misses <- t.misses + 1;
      None

let insert t ~ipa_page ~pa_page =
  match Hashtbl.find_opt t.table ipa_page with
  | Some entry ->
      entry.pa_page <- pa_page;
      touch t entry
  | None ->
      if Hashtbl.length t.table >= t.capacity then begin
        let victim = t.sentinel.prev in
        unlink victim;
        Hashtbl.remove t.table victim.ipa_page
      end;
      let entry =
        { ipa_page; pa_page; prev = t.sentinel; next = t.sentinel }
      in
      push_front t entry;
      Hashtbl.add t.table ipa_page entry

let entries t = Hashtbl.length t.table
let hits t = t.hits
let misses t = t.misses
