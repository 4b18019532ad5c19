type t = int

let zero = 0
let one = 1

let of_int n =
  if n < 0 then invalid_arg "Cycles.of_int: negative cycle count";
  n

let to_int c = c
let add = ( + )

let sub a b =
  if b > a then invalid_arg "Cycles.sub: negative result";
  a - b

let ( + ) = add
let ( - ) = sub
let compare = Int.compare
let equal = Int.equal
let max = Stdlib.max
let to_us ~hz c = float_of_int c /. hz *. 1e6
let of_us ~hz us = of_int (int_of_float (Float.round (us *. hz /. 1e6)))

let pp ppf c =
  let s = string_of_int c in
  let n = String.length s in
  let buf = Buffer.create (n + n / 3) in
  String.iteri
    (fun i ch ->
      if i > 0 && (n - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf ch)
    s;
  Format.pp_print_string ppf (Buffer.contents buf)
