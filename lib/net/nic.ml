module Machine = Armvirt_arch.Machine

type t = {
  rx_dma : Machine.op;
  tx_dma : Machine.op;
  dma_cost : int;
  irq_raise : Packet.t -> unit;
  mutable link : (Link.t * (Packet.t -> unit)) option;
  mutable rx_count : int;
  mutable tx_count : int;
}

let create ~machine ~dma_cost ~irq_raise =
  if dma_cost < 0 then invalid_arg "Nic.create: negative DMA cost";
  {
    rx_dma = Machine.op machine Io "nic.rx_dma";
    tx_dma = Machine.op machine Io "nic.tx_dma";
    dma_cost;
    irq_raise;
    link = None;
    rx_count = 0;
    tx_count = 0;
  }

let attach t link ~remote = t.link <- Some (link, remote)

let receive t packet =
  Machine.spend t.rx_dma t.dma_cost;
  t.rx_count <- t.rx_count + 1;
  Packet.stamp packet "nic_rx";
  t.irq_raise packet

let transmit t packet =
  match t.link with
  | None -> failwith "Nic.transmit: no link attached"
  | Some (link, remote) ->
      Machine.spend t.tx_dma t.dma_cost;
      t.tx_count <- t.tx_count + 1;
      Packet.stamp packet "nic_tx";
      Link.send link packet ~deliver:remote

let rx_count t = t.rx_count
let tx_count t = t.tx_count
