module Cycles = Armvirt_engine.Cycles

type t = { sorted : float array }

(* [Float.compare x y < 0], nan first. Inlined, so the floats stay
   unboxed: [Array.sort Float.compare] boxes each element it hands the
   comparison. *)
let[@inline] before (x : float) y = x < y || (x <> x && y = y)

(* Sifts [a.(i)] down the max-heap [a.(0 .. len - 1)]. *)
let sift (a : float array) i len =
  let v = a.(i) in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= len then moving := false
    else begin
      let c = if l + 1 < len && before a.(l) a.(l + 1) then l + 1 else l in
      if before v a.(c) then begin
        a.(!i) <- a.(c);
        i := c
      end
      else moving := false
    end
  done;
  a.(!i) <- v

(* In-place heapsort in [before]'s order; allocates nothing. *)
let sort (a : float array) =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for last = n - 1 downto 1 do
    let top = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- top;
    sift a 0 last
  done

let of_list values =
  if values = [] then invalid_arg "Summary.of_list: empty sample";
  let sorted = Array.of_list values in
  sort sorted;
  { sorted }

let of_cycles cycles =
  of_list (List.map (fun c -> float_of_int (Cycles.to_int c)) cycles)

let sorted s = Array.to_list s.sorted
let count s = Array.length s.sorted

let mean s =
  Array.fold_left ( +. ) 0.0 s.sorted /. float_of_int (count s)

let percentile s p =
  if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: out of range";
  let n = count s in
  if n = 1 then s.sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (s.sorted.(lo) *. (1.0 -. frac)) +. (s.sorted.(hi) *. frac)
  end

let median s = percentile s 50.0

let stddev s =
  let n = count s in
  if n < 2 then 0.0
  else begin
    let m = mean s in
    let sum_sq =
      Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 s.sorted
    in
    sqrt (sum_sq /. float_of_int (n - 1))
  end

let min s = s.sorted.(0)
let max s = s.sorted.(count s - 1)

let coefficient_of_variation s =
  let m = mean s in
  if Float.equal m 0.0 then 0.0 else stddev s /. m

let median_cycles s =
  Cycles.of_int (int_of_float (Float.round (median s)))
