module Int_set = Set.Make (Int)

type t = { mutable irr : Int_set.t; mutable isr : Int_set.t }

let create () = { irr = Int_set.empty; isr = Int_set.empty }

let fire t ~vector =
  if vector < 32 || vector > 255 then
    invalid_arg "Apic.fire: vector must be in 32-255";
  t.irr <- Int_set.add vector t.irr

let acknowledge t =
  match Int_set.max_elt_opt t.irr with
  | None -> None
  | Some vector ->
      t.irr <- Int_set.remove vector t.irr;
      t.isr <- Int_set.add vector t.isr;
      Some vector

let in_service t = Int_set.elements t.isr |> List.rev
