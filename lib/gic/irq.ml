type t = int
type kind = Sgi | Ppi | Spi

let is_valid irq = irq >= 0 && irq <= 1019

let kind irq =
  if not (is_valid irq) then invalid_arg "Irq.kind: id out of range";
  if irq < 16 then Sgi else if irq < 32 then Ppi else Spi

let virtual_timer = 27
let maintenance = 25
