module Heap = Armvirt_engine.Heap

type vcpu = { dom : int; index : int }

let equal_vcpu a b = a.dom = b.dom && a.index = b.index

let default_weight = 256

(* Where a VCPU's balance lives. A blocked VCPU, or one on a scanned
   runqueue, keeps it in [credit] ([Loose]). On an ordered runqueue
   [credit] is a key, the balance less the runqueue's offset ([Keyed]),
   until a refill clamps the balance at the initial credit ([Clamped]). *)
type place = Loose | Keyed | Clamped

type vstate = {
  vcpu : vcpu;
  some : vcpu option; (* [Some vcpu], built once so picks allocate nothing *)
  affinity : int;
  weight : int; (* proportional share, 256 = 1.0x *)
  cap : int; (* percent ceiling per refill interval; 0 = uncapped *)
  mutable credit : int;
  mutable place : place;
  mutable runnable : bool;
  mutable boosted : bool;
  mutable enqueued_at : int; (* FIFO tie-break among equal credits *)
}

(* One PCPU's runqueue holds exactly its runnable VCPUs, in one of two
   layouts.

   Ordered, until a capped or off-weight VCPU first joins:
   four heaps, by boost and by clamp. A keyed heap is min on
   (-key, enqueued_at), so its head has the most credit, FIFO among
   ties; a clamped heap holds balances pinned at the initial credit and
   is min on (0, enqueued_at), FIFO. Every wake and charge takes a fresh
   stamp and pushes a new entry, so an entry is live while its VCPU is
   runnable and still carries the entry's stamp; stale ones are dropped
   when they surface.

   Scanned, from then on: [items] holds the VCPUs in ascending
   (dom, index) order, slots from [len] on unused. *)
type runq = {
  mutable len : int; (* runnable VCPUs *)
  mutable scanned : bool; (* set when a capped or off-weight VCPU joins *)
  mutable items : vstate array;
  mutable offset : int; (* ordered: a keyed VCPU's balance is key + offset *)
  boosted_keyed : vstate Heap.t;
  boosted_clamped : vstate Heap.t;
  keyed : vstate Heap.t;
  clamped : vstate Heap.t;
}

module Vcpus = Hashtbl.Make (struct
  type t = vcpu

  let equal = equal_vcpu
  let hash v = (v.dom * 65_599) + v.index
end)

type t = {
  num_pcpus : int;
  timeslice : int;
  initial_credit : int;
  vcpus : vstate Vcpus.t;
  runqs : runq array;
  running : vstate array; (* registered VCPUs or [nobody]: [==] is identity *)
  mutable runnable_count : int;
  mutable in_credit_count : int; (* scanned runnable VCPUs with credit > 0 *)
  mutable stamp : int;
  mutable switch_count : int;
  mutable refill_count : int;
}

(* The idle context: never runnable, so never a live heap entry. *)
let nobody =
  {
    vcpu = { dom = -1; index = -1 };
    some = None;
    affinity = -1;
    weight = default_weight;
    cap = 0;
    credit = 0;
    place = Loose;
    runnable = false;
    boosted = false;
    enqueued_at = -1;
  }

let create ~num_pcpus ~timeslice_cycles =
  if num_pcpus < 1 then invalid_arg "Credit_sched.create: num_pcpus < 1";
  if timeslice_cycles < 1 then
    invalid_arg "Credit_sched.create: non-positive timeslice";
  {
    num_pcpus;
    timeslice = timeslice_cycles;
    initial_credit = 10 * timeslice_cycles;
    vcpus = Vcpus.create 16;
    runqs =
      Array.init num_pcpus (fun _ ->
          {
            len = 0;
            scanned = false;
            items = [||];
            offset = 0;
            boosted_keyed = Heap.create ();
            boosted_clamped = Heap.create ();
            keyed = Heap.create ();
            clamped = Heap.create ();
          });
    running = Array.make num_pcpus nobody;
    runnable_count = 0;
    in_credit_count = 0;
    stamp = 0;
    switch_count = 0;
    refill_count = 0;
  }

let next_stamp t =
  t.stamp <- t.stamp + 1;
  t.stamp

let add_vcpu ?(weight = default_weight) ?(cap = 0) t vcpu ~affinity =
  if affinity < 0 || affinity >= t.num_pcpus then
    invalid_arg "Credit_sched.add_vcpu: affinity out of range";
  if weight < 1 then invalid_arg "Credit_sched.add_vcpu: weight < 1";
  if cap < 0 || cap > 100 then
    invalid_arg "Credit_sched.add_vcpu: cap outside [0, 100]";
  if Vcpus.mem t.vcpus vcpu then
    invalid_arg "Credit_sched.add_vcpu: duplicate VCPU";
  let initial =
    if cap = 0 then t.initial_credit
    else Stdlib.min t.initial_credit (Stdlib.max 1 (t.initial_credit * cap / 100))
  in
  Vcpus.replace t.vcpus vcpu
    {
      vcpu;
      some = Some vcpu;
      affinity;
      weight;
      cap;
      credit = initial;
      place = Loose;
      runnable = false;
      boosted = false;
      enqueued_at = next_stamp t;
    }

let state t vcpu =
  match Vcpus.find_opt t.vcpus vcpu with
  | Some s -> s
  | None -> invalid_arg "Credit_sched: unknown VCPU"

let check_pcpu t ~fn pcpu =
  if pcpu < 0 || pcpu >= t.num_pcpus then
    invalid_arg ("Credit_sched." ^ fn ^ ": pcpu out of range")

let balance t s =
  match s.place with
  | Loose -> s.credit
  | Keyed -> s.credit + t.runqs.(s.affinity).offset
  | Clamped -> t.initial_credit

(* May sit on an ordered runqueue. *)
let regular s = s.cap = 0 && s.weight = default_weight

(* --- the ordered layout ------------------------------------------------ *)

(* Drops stale entries off the top of [h]; true if a live one remains. *)
let rec live h =
  (not (Heap.is_empty h))
  &&
  let s = Heap.min_value h in
  (s.runnable && s.enqueued_at = Heap.min_seq h)
  || (ignore (Heap.pop_min h);
      live h)

(* Rebuilds [h] from its live entries, so a heap stays O(R) however
   often its VCPUs block and wake. *)
let compact h =
  let keep = ref [] in
  while not (Heap.is_empty h) do
    let time = Heap.min_time h and seq = Heap.min_seq h in
    let s = Heap.pop_min h in
    if s.runnable && s.enqueued_at = seq then keep := (time, seq, s) :: !keep
  done;
  List.iter (fun (time, seq, s) -> Heap.push h ~time ~seq s) !keep

let push q h ~time s =
  if Heap.size h > (2 * q.len) + 8 then compact h;
  Heap.push h ~time ~seq:s.enqueued_at s

(* Files a runnable VCPU that has just taken a fresh stamp. *)
let rekey q s balance =
  s.credit <- balance - q.offset;
  s.place <- Keyed;
  push q (if s.boosted then q.boosted_keyed else q.keyed) ~time:(-s.credit) s

(* The better live head of one boost class, or [nobody]: most credit,
   FIFO among equals, as [better] orders uncapped VCPUs. *)
let class_head t q keyed clamped =
  match (live keyed, live clamped) with
  | true, true ->
      let k = Heap.min_value keyed and c = Heap.min_value clamped in
      let b = k.credit + q.offset in
      if
        b > t.initial_credit
        || (b = t.initial_credit && k.enqueued_at < c.enqueued_at)
      then k
      else c
  | true, false -> Heap.min_value keyed
  | false, true -> Heap.min_value clamped
  | false, false -> nobody

let ordered_pick t q =
  let s = class_head t q q.boosted_keyed q.boosted_clamped in
  if s == nobody then class_head t q q.keyed q.clamped
  else begin
    (* The boost is spent: into the unboosted heap of the same class. *)
    s.boosted <- false;
    (match s.place with
    | Clamped ->
        ignore (Heap.pop_min q.boosted_clamped);
        push q q.clamped ~time:0 s
    | Loose | Keyed ->
        ignore (Heap.pop_min q.boosted_keyed);
        push q q.keyed ~time:(-s.credit) s);
    s
  end

let has_credit q =
  live q.boosted_clamped || live q.clamped
  || (live q.boosted_keyed
     && (Heap.min_value q.boosted_keyed).credit + q.offset > 0)
  || (live q.keyed && (Heap.min_value q.keyed).credit + q.offset > 0)

(* Balances that reach the clamp move to the clamped heap. *)
let clamp t q keyed clamped =
  while
    live keyed && (Heap.min_value keyed).credit + q.offset >= t.initial_credit
  do
    let s = Heap.pop_min keyed in
    s.place <- Clamped;
    push q clamped ~time:0 s
  done

(* --- the scanned layout ------------------------------------------------ *)

let order (a : vcpu) (b : vcpu) =
  match Int.compare a.dom b.dom with
  | 0 -> Int.compare a.index b.index
  | c -> c

(* The first slot whose VCPU does not sort below [v]. *)
let position q v =
  let lo = ref 0 and hi = ref q.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if order q.items.(mid).vcpu v < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let enqueue q s =
  let i = position q s.vcpu in
  if q.len = Array.length q.items then begin
    let grown = Array.make (Stdlib.max 8 (2 * q.len)) s in
    Array.blit q.items 0 grown 0 q.len;
    q.items <- grown
  end;
  Array.blit q.items i q.items (i + 1) (q.len - i);
  q.items.(i) <- s;
  q.len <- q.len + 1

let dequeue q s =
  let i = position q s.vcpu in
  Array.blit q.items (i + 1) q.items i (q.len - i - 1);
  q.len <- q.len - 1

(* The first capped or off-weight VCPU joins: every balance becomes
   loose and the runqueue is laid out for the scan, for good. *)
let to_scan t q =
  q.scanned <- true;
  let members = ref [] in
  List.iter
    (fun h ->
      while live h do
        members := Heap.pop_min h :: !members
      done)
    [ q.boosted_keyed; q.boosted_clamped; q.keyed; q.clamped ];
  List.iter
    (fun s ->
      s.credit <- balance t s;
      s.place <- Loose;
      if s.credit > 0 then t.in_credit_count <- t.in_credit_count + 1)
    !members;
  q.items <-
    Array.of_list (List.sort (fun a b -> order a.vcpu b.vcpu) !members);
  q.offset <- 0

(* A loose credit changes only here and runnability only in
   [set_runnable], so the in-credit count stays exact. *)
let set_credit t s credit =
  if s.runnable && (s.credit > 0) <> (credit > 0) then
    t.in_credit_count <- (t.in_credit_count + if credit > 0 then 1 else -1);
  s.credit <- credit

(* A capped VCPU that has burned through its credit is throttled until
   the next refill (Xen's CSCHED_PRI_IDLE under a cap): it stays
   runnable but is invisible to [pick]. *)
let throttled s = s.cap > 0 && s.credit <= 0

(* Exhaustion-path grant: weight-scaled, as the original uniform grant
   was (weight 256 reproduces it exactly). A capped VCPU's grant and
   balance are bounded by its cap's share of the initial credit, so
   overdraft from overrunning a slice carries forward as debt. *)
let grant t s =
  if s.cap = 0 then
    Stdlib.max 1 (t.initial_credit * s.weight / default_weight)
  else Stdlib.max 1 (t.initial_credit * s.cap / 100)

let ceiling t s =
  if s.cap = 0 then max_int
  else Stdlib.max 1 (t.initial_credit * s.cap / 100)

let[@inline] better a b =
  (* Boosted first; then most credit; FIFO among equals. *)
  match (a.boosted, b.boosted) with
  | true, false -> true
  | false, true -> false
  | _ when a.cap > 0 || b.cap > 0 ->
      (* Across a cap boundary, absolute balances aren't comparable —
         a capped VCPU's ceiling sits far below its rivals' — so fall
         back to Xen's class scheduling: in-credit (UNDER) beats
         out-of-credit (OVER), FIFO within a class. *)
      let ua = a.credit > 0 and ub = b.credit > 0 in
      if ua <> ub then ua else a.enqueued_at < b.enqueued_at
  | _ ->
      a.credit > b.credit
      || (a.credit = b.credit && a.enqueued_at < b.enqueued_at)

(* Across a cap boundary [better] is not transitive, so the winner
   depends on the scan order: always (dom, index), the runqueue's. *)
let scan_pick q =
  let best = ref nobody in
  for i = 0 to q.len - 1 do
    let s = q.items.(i) in
    if (not (throttled s)) && (!best == nobody || better s !best) then
      best := s
  done;
  !best

(* --- operations -------------------------------------------------------- *)

let set_runnable t vcpu runnable =
  let s = state t vcpu in
  if runnable <> s.runnable then begin
    let q = t.runqs.(s.affinity) in
    s.runnable <- runnable;
    if runnable then begin
      t.runnable_count <- t.runnable_count + 1;
      (* Wake-up boost: jumps the queue once, like Xen's BOOST. *)
      s.boosted <- true;
      s.enqueued_at <- next_stamp t;
      if not (q.scanned || regular s) then to_scan t q;
      if q.scanned then begin
        enqueue q s;
        if s.credit > 0 then t.in_credit_count <- t.in_credit_count + 1
      end
      else begin
        q.len <- q.len + 1;
        rekey q s s.credit
      end
    end
    else begin
      t.runnable_count <- t.runnable_count - 1;
      if q.scanned then begin
        dequeue q s;
        if s.credit > 0 then t.in_credit_count <- t.in_credit_count - 1
      end
      else begin
        s.credit <- balance t s;
        s.place <- Loose;
        q.len <- q.len - 1;
        if q.len = 0 then q.offset <- 0
      end
    end
  end

let remove_vcpu t vcpu =
  set_runnable t vcpu false;
  let s = state t vcpu in
  Vcpus.remove t.vcpus vcpu;
  if t.running.(s.affinity) == s then t.running.(s.affinity) <- nobody

let pick t ~pcpu =
  check_pcpu t ~fn:"pick" pcpu;
  let q = t.runqs.(pcpu) in
  let next =
    if q.scanned then begin
      let s = scan_pick q in
      if s != nobody then s.boosted <- false;
      s
    end
    else ordered_pick t q
  in
  if next != t.running.(pcpu) then begin
    t.switch_count <- t.switch_count + 1;
    t.running.(pcpu) <- next
  end;
  next.some

let rec ordered_in_credit t i =
  i < t.num_pcpus
  && (((not t.runqs.(i).scanned) && has_credit t.runqs.(i))
     || ordered_in_credit t (i + 1))

(* Refill until some runnable VCPU is back in credit (a deeply indebted
   VCPU — e.g. one that overran a long timeslice — may need several
   grants, as in Xen's periodic accounting). The test is O(PCPUs) at
   most; the grant walks every VCPU, because blocked ones earn credit
   too. On an ordered runqueue every VCPU's grant is the initial
   credit, uncapped, so the offset takes it. *)
let rec refill_if_exhausted t =
  if
    t.runnable_count > 0 && t.in_credit_count = 0
    && not (ordered_in_credit t 0)
  then begin
    t.refill_count <- t.refill_count + 1;
    (* lint: sorted — weighted credit grant commutes across VCPUs *)
    Vcpus.iter
      (fun _ s ->
        match s.place with
        | Loose ->
            set_credit t s (Stdlib.min (ceiling t s) (s.credit + grant t s))
        | Keyed | Clamped -> ())
      t.vcpus;
    Array.iter
      (fun q -> if not q.scanned then q.offset <- q.offset + t.initial_credit)
      t.runqs;
    refill_if_exhausted t
  end

(* Periodic accounting tick (Xen fires this every 30 ms): the [cycles]
   of PCPU capacity that elapsed since the last tick are distributed
   among each PCPU's runnable VCPUs in proportion to weight, bounded
   by each VCPU's cap share of the interval, and clamped at
   initial_credit so nobody hoards. Because the grant rate equals the
   burn rate, credits stay balanced: a cap of [c] percent bounds a
   saturated VCPU to ~[c] percent of its PCPU, and a double-weight
   VCPU earns — and therefore runs — twice as much. On an ordered
   runqueue the grant is [cycles / len] for everyone: the offset takes
   it, and the balances it lifts to the clamp move to the clamped
   heaps. *)
let periodic_refill t ~cycles =
  if cycles < 0 then
    invalid_arg "Credit_sched.periodic_refill: negative cycles";
  t.refill_count <- t.refill_count + 1;
  Array.iter
    (fun q ->
      if q.scanned then begin
        let weight_sum = ref 0 in
        for i = 0 to q.len - 1 do
          weight_sum := !weight_sum + q.items.(i).weight
        done;
        for i = 0 to q.len - 1 do
          let s = q.items.(i) in
          let fair = cycles * s.weight / !weight_sum in
          let fair =
            if s.cap = 0 then fair else Stdlib.min fair (cycles * s.cap / 100)
          in
          let top = if s.cap = 0 then t.initial_credit else ceiling t s in
          set_credit t s (Stdlib.min top (s.credit + fair))
        done
      end
      else if q.len > 0 then begin
        q.offset <- q.offset + (cycles / q.len);
        clamp t q q.boosted_keyed q.boosted_clamped;
        clamp t q q.keyed q.clamped
      end)
    t.runqs

let charge t ~pcpu ~cycles =
  if cycles < 0 then invalid_arg "Credit_sched.charge: negative cycles";
  check_pcpu t ~fn:"charge" pcpu;
  let s = t.running.(pcpu) in
  if s != nobody then begin
    let q = t.runqs.(pcpu) in
    let left = balance t s - cycles in
    s.enqueued_at <- next_stamp t (* requeue at the back *);
    if s.runnable && not q.scanned then rekey q s left
    else set_credit t s left
  end;
  refill_if_exhausted t

let current t ~pcpu =
  check_pcpu t ~fn:"current" pcpu;
  t.running.(pcpu).some

let credit_of t vcpu = balance t (state t vcpu)
let switches t = t.switch_count
let refills t = t.refill_count

let run_to_completion t ~work ~switch_cost =
  if switch_cost < 0 then
    invalid_arg "Credit_sched.run_to_completion: negative switch cost";
  let remaining = Vcpus.create 16 in
  List.iter
    (fun (vcpu, cycles) ->
      ignore (state t vcpu);
      if cycles < 0 then
        invalid_arg "Credit_sched.run_to_completion: negative work";
      Vcpus.replace remaining vcpu
        (Option.value ~default:0 (Vcpus.find_opt remaining vcpu) + cycles);
      set_runnable t vcpu true)
    work;
  let pcpu_time = Array.make t.num_pcpus 0 in
  let switches_before = t.switch_count in
  let progress = ref true in
  while !progress do
    progress := false;
    for pcpu = 0 to t.num_pcpus - 1 do
      match pick t ~pcpu with
      | None -> ()
      | Some vcpu ->
          progress := true;
          let left = Vcpus.find remaining vcpu in
          let slice = Stdlib.min left t.timeslice in
          pcpu_time.(pcpu) <- pcpu_time.(pcpu) + slice;
          charge t ~pcpu ~cycles:slice;
          let left' = left - slice in
          if left' <= 0 then begin
            Vcpus.replace remaining vcpu 0;
            set_runnable t vcpu false
          end
          else Vcpus.replace remaining vcpu left'
    done
  done;
  let total_switches = t.switch_count - switches_before in
  let makespan =
    Array.fold_left Stdlib.max 0 pcpu_time
    + (total_switches * switch_cost / Stdlib.max 1 t.num_pcpus)
  in
  (makespan, total_switches)
