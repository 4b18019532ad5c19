type desc = { addr : Armvirt_mem.Addr.ipa; len : int; id : int }

exception Ring_full

type t = {
  size : int;
  avail : desc Queue.t;
  used : (int * int) Queue.t;
  in_backend : (int, unit) Hashtbl.t;
  mutable backend_live : bool;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(size = 256) () =
  if not (is_power_of_two size) then
    invalid_arg "Virtqueue.create: size must be a power of two";
  {
    size;
    avail = Queue.create ();
    used = Queue.create ();
    in_backend = Hashtbl.create 64;
    backend_live = false;
  }

let avail_count t = Queue.length t.avail
let used_count t = Queue.length t.used

let outstanding t =
  avail_count t + Hashtbl.length t.in_backend + used_count t

let add_avail t desc =
  if desc.len < 0 then invalid_arg "Virtqueue.add_avail: negative length";
  if outstanding t >= t.size then raise Ring_full;
  Queue.push desc t.avail

let kick_needed t = not t.backend_live

let backend_pop t =
  match Queue.take_opt t.avail with
  | Some desc ->
      t.backend_live <- true;
      Hashtbl.replace t.in_backend desc.id ();
      Some desc
  | None -> None

let backend_park t = t.backend_live <- false

let backend_push_used t ~id ~len =
  if not (Hashtbl.mem t.in_backend id) then
    invalid_arg "Virtqueue.backend_push_used: id not owned by backend";
  Hashtbl.remove t.in_backend id;
  Queue.push (id, len) t.used

let guest_reap_used t = Queue.take_opt t.used
