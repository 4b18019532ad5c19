(* Structure-of-arrays binary min-heap.

   The previous implementation stored one boxed [{time; seq; value}]
   record per pending event: every push allocated, every key comparison
   chased a pointer, and [pop] left the popped record reachable from the
   backing array until some later push overwrote the slot — a space leak
   that pinned completed events' closures (and everything they captured)
   for the life of the heap.

   This layout keeps the [(time, seq)] keys in two unboxed [int] arrays
   (sift loops touch only immediate ints, no write barrier) and the
   payloads in a third array whose vacated slots are overwritten with a
   dummy as soon as an element leaves the heap, so popped values are
   collectable immediately. Pushes allocate nothing; the sifts move
   elements into a hole instead of swapping. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
}

(* Fills empty value slots. An immediate (so [Array.make] builds a
   uniform array for any 'a) that no read path can observe: every access
   is bounds-guarded by [size]. *)
let dummy : 'a. unit -> 'a = fun () -> Obj.magic ()

let create () = { times = [||]; seqs = [||]; values = [||]; size = 0 }

let grow h =
  let cap = Array.length h.times in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let times' = Array.make cap' 0 in
  let seqs' = Array.make cap' 0 in
  let values' = Array.make cap' (dummy ()) in
  Array.blit h.times 0 times' 0 h.size;
  Array.blit h.seqs 0 seqs' 0 h.size;
  Array.blit h.values 0 values' 0 h.size;
  h.times <- times';
  h.seqs <- seqs';
  h.values <- values'

let push h ~time ~seq value =
  if h.size = Array.length h.times then grow h;
  let times = h.times and seqs = h.seqs and values = h.values in
  (* Sift up around a hole: parents greater than [(time, seq)] slide
     down; the new element is written once, into its final slot. *)
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
      Array.unsafe_set values !i (Array.unsafe_get values p);
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set values !i value

let min_time h =
  if h.size = 0 then invalid_arg "Heap.min_time: empty heap";
  h.times.(0)

let min_seq h =
  if h.size = 0 then invalid_arg "Heap.min_seq: empty heap";
  h.seqs.(0)

let min_value h =
  if h.size = 0 then invalid_arg "Heap.min_value: empty heap";
  h.values.(0)

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let times = h.times and seqs = h.seqs and values = h.values in
  let top = values.(0) in
  let n = h.size - 1 in
  h.size <- n;
  if n = 0 then values.(0) <- dummy ()
  else begin
    (* Move the last element into the root hole, clearing its old slot
       (the space-leak fix), then sift the hole down. *)
    let t = times.(n) and s = seqs.(n) and v = values.(n) in
    values.(n) <- dummy ();
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
          Array.unsafe_set values !i (Array.unsafe_get values c);
          i := c
        end
        else moving := false
      end
    done;
    Array.unsafe_set times !i t;
    Array.unsafe_set seqs !i s;
    Array.unsafe_set values !i v
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
