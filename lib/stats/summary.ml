module Cycles = Armvirt_engine.Cycles

type t = { sorted : float array }

let of_list values =
  if values = [] then invalid_arg "Summary.of_list: empty sample";
  let sorted = Array.of_list values in
  Array.sort Float.compare sorted;
  { sorted }

let of_cycles cycles =
  of_list (List.map (fun c -> float_of_int (Cycles.to_int c)) cycles)

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
