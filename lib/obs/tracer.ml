(* Interned strings: a dense id per distinct string, in intern order. *)
type strings = {
  ids : (string, int) Hashtbl.t;
  mutable labels : string array;
  mutable count : int;
  limit : int;
}

let strings limit =
  { ids = Hashtbl.create 16; labels = [||]; count = 0; limit }

let intern s label =
  match Hashtbl.find s.ids label with
  | id -> id
  | exception Not_found ->
      let id = s.count in
      if id >= s.limit then invalid_arg "Tracer: too many interned strings";
      if id = Array.length s.labels then begin
        let grown = Array.make (Stdlib.max 16 (2 * id)) "" in
        Array.blit s.labels 0 grown 0 id;
        s.labels <- grown
      end;
      s.labels.(id) <- label;
      s.count <- id + 1;
      Hashtbl.add s.ids label id;
      id

(* One event is three ints at one ring slot: its start time, its
   duration or value, and a word packing (from the low bits) its kind in
   2 bits, its category in 3, its track id in 26 and its name id in 31. *)
type t = {
  mutable ts : int array;
  mutable arg : int array;
  mutable word : int array;
  mutable head : int; (* slot of the oldest event *)
  mutable len : int;
  mutable dropped : int;
  capacity : int;
  tracks : strings;
  names : strings;
}

let create ?capacity () =
  let capacity =
    match capacity with
    | Some c when c < 1 -> invalid_arg "Tracer.create: capacity < 1"
    | Some c -> c
    | None -> max_int
  in
  {
    ts = [||];
    arg = [||];
    word = [||];
    head = 0;
    len = 0;
    dropped = 0;
    capacity;
    tracks = strings (1 lsl 26);
    names = strings (1 lsl 31);
  }

let track t label = intern t.tracks label
let name t label = intern t.names label

type kind = Complete | Instant | Value

let kind_code = function Complete -> 0 | Instant -> 1 | Value -> 2
let kinds = [| Complete; Instant; Value |]

(* Grow by doubling (clamped to the cap), re-linearizing so the oldest
   event lands at slot 0. *)
let grow t =
  let n = Array.length t.ts in
  let n' = Stdlib.min (Stdlib.max 8 (2 * n)) t.capacity in
  let relink a =
    let grown = Array.make n' 0 in
    Array.blit a t.head grown 0 (n - t.head);
    Array.blit a 0 grown (n - t.head) t.head;
    grown
  in
  t.ts <- relink t.ts;
  t.arg <- relink t.arg;
  t.word <- relink t.word;
  t.head <- 0

let rec push t ts arg word =
  let n = Array.length t.ts in
  if t.len < n then begin
    let i = t.head + t.len in
    let i = if i >= n then i - n else i in
    t.ts.(i) <- ts;
    t.arg.(i) <- arg;
    t.word.(i) <- word;
    t.len <- t.len + 1
  end
  else if t.len >= t.capacity then begin
    (* At the cap: overwrite the oldest event and count the drop. *)
    let i = t.head in
    t.ts.(i) <- ts;
    t.arg.(i) <- arg;
    t.word.(i) <- word;
    t.head <- (if i + 1 = n then 0 else i + 1);
    t.dropped <- t.dropped + 1
  end
  else begin
    grow t;
    push t ts arg word
  end

(* Only ids this tracer interned fit the word's fields. *)
let pack t kind cat ~track ~name =
  if track < 0 || track >= t.tracks.count || name < 0 || name >= t.names.count
  then invalid_arg "Tracer: track or name not interned by this tracer";
  kind_code kind lor (Span.category_index cat lsl 2) lor (track lsl 5) lor (name lsl 31)

let complete t ~track ~cat ~name ~ts ~dur =
  if dur < 0 then invalid_arg "Tracer.complete: negative duration";
  push t ts dur (pack t Complete cat ~track ~name)

let instant t ~track ~cat ~name ~ts =
  push t ts 0 (pack t Instant cat ~track ~name)

let value t ~track ~cat ~name ~ts ~value =
  push t ts value (pack t Value cat ~track ~name)

let length t = t.len
let dropped t = t.dropped

(* The slot of the [i]th retained event, oldest first. *)
let slot t i =
  if i < 0 || i >= t.len then invalid_arg "Tracer: event index out of range";
  let j = t.head + i in
  let n = Array.length t.ts in
  if j >= n then j - n else j

let ts t i = t.ts.(slot t i)
let arg t i = t.arg.(slot t i)
let word t i = t.word.(slot t i)
let kind t i = kinds.(word t i land 3)
let cat t i = Span.categories.((word t i lsr 2) land 7)
let track_of t i = (word t i lsr 5) land ((1 lsl 26) - 1)
let name_of t i = word t i lsr 31
let tracks t = t.tracks.count
let names t = t.names.count
let track_label t id = t.tracks.labels.(id)
let name_label t id = t.names.labels.(id)

let events t =
  List.init t.len (fun i ->
      {
        Span.ts = ts t i;
        track = track_label t (track_of t i);
        cat = cat t i;
        name = name_label t (name_of t i);
        kind =
          (match kind t i with
          | Complete -> Span.Complete (arg t i)
          | Instant -> Span.Instant
          | Value -> Span.Value (arg t i));
      })
