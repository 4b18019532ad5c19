type request = { gref : Armvirt_mem.Grant_table.gref; len : int; id : int }
type response = { id : int; status : int }

exception Ring_full

type t = {
  size : int;
  requests : request Queue.t;
  responses : response Queue.t;
  in_backend : (int, unit) Hashtbl.t;
  mutable backend_live : bool;
  mutable frontend_live : bool;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(size = 256) () =
  if not (is_power_of_two size) then
    invalid_arg "Xen_ring.create: size must be a power of two";
  {
    size;
    requests = Queue.create ();
    responses = Queue.create ();
    in_backend = Hashtbl.create 64;
    backend_live = false;
    frontend_live = false;
  }

let outstanding t =
  Queue.length t.requests + Hashtbl.length t.in_backend
  + Queue.length t.responses

let frontend_push t req =
  if req.len < 0 then invalid_arg "Xen_ring.frontend_push: negative length";
  if outstanding t >= t.size then raise Ring_full;
  Queue.push req t.requests

let frontend_notify_needed t = not t.backend_live

let backend_pop t =
  match Queue.take_opt t.requests with
  | Some req ->
      t.backend_live <- true;
      Hashtbl.replace t.in_backend req.id ();
      Some req
  | None -> None

let backend_respond t rsp =
  if not (Hashtbl.mem t.in_backend rsp.id) then
    invalid_arg "Xen_ring.backend_respond: id not owned by backend";
  Hashtbl.remove t.in_backend rsp.id;
  Queue.push rsp t.responses

let backend_notify_needed t = not t.frontend_live

let frontend_reap t =
  match Queue.take_opt t.responses with
  | Some rsp ->
      t.frontend_live <- true;
      Some rsp
  | None -> None
