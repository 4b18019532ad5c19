module Heap = Armvirt_engine.Heap

type vm_state = Booting | Ready

type slot = {
  mutable occupied : bool;
  mutable profile : int;
  mutable state : vm_state;
  mutable vcpus : int;
  mutable pending_vcpus : int;
  mutable arrived_at : int;
  mutable ready_at : int;
  mutable work : int array; (* per-VCPU remaining cycles; reused *)
}

type t = {
  mutable slots : slot array; (* index = domid *)
  free : unit Heap.t; (* retired domids, keyed by domid *)
  mutable next : int; (* first never-used domid *)
  mutable live : int;
  mutable admitted : int;
  mutable retired : int;
  mutable peak_live : int;
  mutable reused : int;
}

let empty_slot () =
  {
    occupied = false;
    profile = 0;
    state = Booting;
    vcpus = 0;
    pending_vcpus = 0;
    arrived_at = 0;
    ready_at = 0;
    work = [||];
  }

let create () =
  {
    slots = Array.init 16 (fun _ -> empty_slot ());
    free = Heap.create ();
    next = 0;
    live = 0;
    admitted = 0;
    retired = 0;
    peak_live = 0;
    reused = 0;
  }

let ensure t domid =
  let n = Array.length t.slots in
  if domid >= n then begin
    let grown =
      Array.init
        (Stdlib.max (2 * n) (domid + 1))
        (fun i -> if i < n then t.slots.(i) else empty_slot ())
    in
    t.slots <- grown
  end

let slot t domid =
  if domid < 0 || domid >= t.next || not t.slots.(domid).occupied then
    invalid_arg "Fleet.Pool.slot: not a live domid";
  t.slots.(domid)

(* Lowest retired domid first, like Xen's domid allocator wrapping:
   churn exercises slot reuse instead of growing the table forever. *)
let admit t ~profile ~vcpus ~now =
  if vcpus < 1 then invalid_arg "Fleet.Pool.admit: vcpus < 1";
  let domid =
    if Heap.is_empty t.free then begin
      let d = t.next in
      t.next <- t.next + 1;
      d
    end
    else begin
      let d = Heap.min_time t.free in
      Heap.pop_min t.free;
      t.reused <- t.reused + 1;
      d
    end
  in
  ensure t domid;
  let s = t.slots.(domid) in
  s.occupied <- true;
  s.profile <- profile;
  s.state <- Booting;
  s.vcpus <- vcpus;
  s.pending_vcpus <- vcpus;
  s.arrived_at <- now;
  s.ready_at <- 0;
  if Array.length s.work < vcpus then s.work <- Array.make vcpus 0
  else Array.fill s.work 0 (Array.length s.work) 0;
  t.live <- t.live + 1;
  t.admitted <- t.admitted + 1;
  if t.live > t.peak_live then t.peak_live <- t.live;
  domid

let retire t domid =
  let s = slot t domid in
  s.occupied <- false;
  t.live <- t.live - 1;
  t.retired <- t.retired + 1;
  Heap.push t.free ~time:domid ~seq:0 ()

let admitted t = t.admitted
let retired t = t.retired
let peak_live t = t.peak_live
let reused t = t.reused
let high_water t = t.next
