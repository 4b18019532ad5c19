type domid = int
type port = int

type channel = {
  from_dom : domid;
  to_dom : domid;
  mutable pending : bool;
}

type t = { table : (port, channel) Hashtbl.t; mutable next_port : int }

let create () = { table = Hashtbl.create 32; next_port = 0 }

let alloc t ~from_dom ~to_dom =
  let port = t.next_port in
  t.next_port <- port + 1;
  Hashtbl.replace t.table port
    { from_dom; to_dom; pending = false };
  port

let find t port =
  match Hashtbl.find_opt t.table port with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Event_channel: free port %d" port)

let send t port = (find t port).pending <- true
let pending t port = (find t port).pending

let consume t port =
  let c = find t port in
  if c.pending then begin
    c.pending <- false;
    true
  end
  else false

let peer t port =
  let c = find t port in
  (c.from_dom, c.to_dom)

let pending_for t dom =
  Hashtbl.fold
    (fun port c acc ->
      if c.to_dom = dom && c.pending then port :: acc else acc)
    t.table []
  |> List.sort Int.compare
