type 'a t = {
  mutable data : 'a array;
  mutable head : int; (* index of oldest element *)
  mutable len : int;
  mutable dropped : int;
  capacity : int option;
}

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Ring.create: capacity < 1"
  | _ -> ());
  { data = [||]; head = 0; len = 0; dropped = 0; capacity }

let length t = t.len
let dropped t = t.dropped

let push t x =
  let n = Array.length t.data in
  if t.len < n then begin
    t.data.((t.head + t.len) mod n) <- x;
    t.len <- t.len + 1
  end
  else begin
    match t.capacity with
    | Some cap when t.len >= cap ->
        (* At the cap: overwrite the oldest element and count the drop. *)
        t.data.(t.head) <- x;
        t.head <- (t.head + 1) mod n;
        t.dropped <- t.dropped + 1
    | _ ->
        (* Grow by doubling (clamped to the cap), re-linearizing so the
           oldest element lands at index 0. *)
        let n' = Stdlib.max 8 (2 * n) in
        let n' =
          match t.capacity with Some c -> Stdlib.min n' c | None -> n'
        in
        let grown = Array.make n' x in
        for i = 0 to t.len - 1 do
          grown.(i) <- t.data.((t.head + i) mod n)
        done;
        grown.(t.len) <- x;
        t.data <- grown;
        t.head <- 0;
        t.len <- t.len + 1
  end

let to_list t =
  let n = Array.length t.data in
  List.init t.len (fun i -> t.data.((t.head + i) mod n))
