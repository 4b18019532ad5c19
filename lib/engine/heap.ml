(* Binary min-heap whose sifts move only ints.

   The heap proper is three parallel [int] arrays: the [(time, seq)]
   keys and, for each entry, the index of the slot that holds its
   payload. Payloads live in a slot table, [values], written once when
   an entry is pushed and cleared when it is popped, so a popped value
   is collectable at once. The free slots are the tail of [slots]:
   positions [0, size) name the entries' slots and [size, capacity) the
   empty ones, so [slots] is always a permutation of the slot indices.
   A push takes the slot at [size], and a pop leaves the freed slot
   where the last entry was, so a steady push/pop churn reuses one
   slot.

   A sift reads and writes immediate ints only: no payload moves, so
   there is no write barrier per level, and a push or pop makes one
   barriered write into [values]. Pushes allocate nothing but the
   doubling of a full heap; the sifts move elements into a hole instead
   of swapping. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array; (* heap position -> slot; then the free slots *)
  mutable values : 'a array; (* slot -> payload; free slots hold [dummy] *)
  mutable size : int;
}

(* Fills empty value slots. An immediate (so [Array.make] builds a
   uniform array for any 'a) that no read path can observe: a slot is
   read only while an entry names it. *)
let dummy : 'a. unit -> 'a = fun () -> Obj.magic ()

let create () =
  { times = [||]; seqs = [||]; slots = [||]; values = [||]; size = 0 }

(* Only a full heap grows, so every old slot is taken and the new ones
   are the free tail, lowest first. *)
let grow h =
  let cap = Array.length h.times in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  h.times <- extend h.times 0;
  h.seqs <- extend h.seqs 0;
  h.slots <- extend h.slots 0;
  h.values <- extend h.values (dummy ());
  for i = cap to cap' - 1 do
    h.slots.(i) <- i
  done

let push h ~time ~seq value =
  if h.size = Array.length h.times then grow h;
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let slot = slots.(h.size) in
  h.values.(slot) <- value;
  (* Sift up around a hole: parents greater than [(time, seq)] slide
     down; the new entry is written once, into its final position. *)
  (* Indices below are all in [0, size): safe for unsafe accesses. *)
  let i = ref h.size in
  h.size <- h.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = Array.unsafe_get times p in
    if tp > time || (tp = time && Array.unsafe_get seqs p > seq) then begin
      Array.unsafe_set times !i tp;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let min_time h =
  if h.size = 0 then invalid_arg "Heap.min_time: empty heap";
  h.times.(0)

let min_seq h =
  if h.size = 0 then invalid_arg "Heap.min_seq: empty heap";
  h.seqs.(0)

let min_value h =
  if h.size = 0 then invalid_arg "Heap.min_value: empty heap";
  h.values.(h.slots.(0))

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let slot = slots.(0) in
  let top = h.values.(slot) in
  h.values.(slot) <- dummy ();
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    (* Move the last entry into the root hole, its position taking the
       freed slot, and sift the hole down. *)
    let t = times.(n) and s = seqs.(n) and v = slots.(n) in
    slots.(n) <- slot;
    (* Indices below are all in [0, n): safe for unsafe accesses. *)
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            &&
            let tr = Array.unsafe_get times r
            and tl = Array.unsafe_get times l in
            tr < tl
            || (tr = tl && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
          then r
          else l
        in
        let tc = Array.unsafe_get times c in
        if tc < t || (tc = t && Array.unsafe_get seqs c < s) then begin
          Array.unsafe_set times !i tc;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else moving := false
      end
    done;
    Array.unsafe_set times !i t;
    Array.unsafe_set seqs !i s;
    Array.unsafe_set slots !i v
  end;
  top

let pop h =
  if h.size = 0 then None
  else begin
    let time = h.times.(0) and seq = h.seqs.(0) in
    let value = pop_min h in
    Some (time, seq, value)
  end

let size h = h.size
let is_empty h = h.size = 0
