type vcpu = { dom : int; index : int }

let default_weight = 256

type vstate = {
  vcpu : vcpu;
  affinity : int;
  weight : int; (* proportional share, 256 = 1.0x *)
  cap : int; (* percent ceiling per refill interval; 0 = uncapped *)
  mutable credit : int;
  mutable runnable : bool;
  mutable boosted : bool;
  mutable enqueued_at : int; (* FIFO tie-break among equal credits *)
}

(* One PCPU's runqueue: exactly its runnable VCPUs, in ascending
   (dom, index) order. Slots from [len] on are unused. *)
type runq = { mutable items : vstate array; mutable len : int }

type t = {
  num_pcpus : int;
  timeslice : int;
  initial_credit : int;
  vcpus : (vcpu, vstate) Hashtbl.t;
  runqs : runq array;
  running : vstate option array; (* registered VCPUs only: [==] is identity *)
  mutable runnable_count : int;
  mutable in_credit_count : int; (* runnable VCPUs with credit > 0 *)
  mutable stamp : int;
  mutable switch_count : int;
  mutable refill_count : int;
}

let create ~num_pcpus ~timeslice_cycles =
  if num_pcpus < 1 then invalid_arg "Credit_sched.create: num_pcpus < 1";
  if timeslice_cycles < 1 then
    invalid_arg "Credit_sched.create: non-positive timeslice";
  {
    num_pcpus;
    timeslice = timeslice_cycles;
    initial_credit = 10 * timeslice_cycles;
    vcpus = Hashtbl.create 16;
    runqs = Array.init num_pcpus (fun _ -> { items = [||]; len = 0 });
    running = Array.make num_pcpus None;
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
  if Hashtbl.mem t.vcpus vcpu then
    invalid_arg "Credit_sched.add_vcpu: duplicate VCPU";
  let initial =
    if cap = 0 then t.initial_credit
    else Stdlib.min t.initial_credit (Stdlib.max 1 (t.initial_credit * cap / 100))
  in
  Hashtbl.replace t.vcpus vcpu
    {
      vcpu;
      affinity;
      weight;
      cap;
      credit = initial;
      runnable = false;
      boosted = false;
      enqueued_at = next_stamp t;
    }

let state t vcpu =
  match Hashtbl.find_opt t.vcpus vcpu with
  | Some s -> s
  | None -> invalid_arg "Credit_sched: unknown VCPU"

let check_pcpu t ~fn pcpu =
  if pcpu < 0 || pcpu >= t.num_pcpus then
    invalid_arg ("Credit_sched." ^ fn ^ ": pcpu out of range")

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

(* Sorted insertion: a domid that churn recycles lands in its place,
   not at the tail. A boot storm admits in domid order, so it appends. *)
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

(* Credit changes only here and runnability only in [set_runnable], so
   the runqueues and both counts stay exact. *)
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

let set_runnable t vcpu runnable =
  let s = state t vcpu in
  if runnable <> s.runnable then begin
    let q = t.runqs.(s.affinity) and delta = if runnable then 1 else -1 in
    if runnable then begin
      (* Wake-up boost: jumps the queue once, like Xen's BOOST. *)
      s.boosted <- true;
      s.enqueued_at <- next_stamp t;
      enqueue q s
    end
    else dequeue q s;
    t.runnable_count <- t.runnable_count + delta;
    if s.credit > 0 then t.in_credit_count <- t.in_credit_count + delta;
    s.runnable <- runnable
  end

let remove_vcpu t vcpu =
  set_runnable t vcpu false;
  let s = state t vcpu in
  Hashtbl.remove t.vcpus vcpu;
  match t.running.(s.affinity) with
  | Some r when r == s -> t.running.(s.affinity) <- None
  | _ -> ()

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

let pick t ~pcpu =
  check_pcpu t ~fn:"pick" pcpu;
  (* Across a cap boundary [better] is not transitive, so the winner
     depends on the scan order: always (dom, index), the runqueue's. *)
  let q = t.runqs.(pcpu) in
  let best = ref (-1) in
  for i = 0 to q.len - 1 do
    let s = q.items.(i) in
    if (not (throttled s)) && (!best < 0 || better s q.items.(!best)) then
      best := i
  done;
  let next =
    if !best < 0 then None
    else begin
      let s = q.items.(!best) in
      s.boosted <- false;
      Some s
    end
  in
  (match (next, t.running.(pcpu)) with
  | None, None -> ()
  | Some s, Some r when s == r -> ()
  | _ ->
      t.switch_count <- t.switch_count + 1;
      t.running.(pcpu) <- next);
  Option.map (fun s -> s.vcpu) next

(* Refill until some runnable VCPU is back in credit (a deeply indebted
   VCPU — e.g. one that overran a long timeslice — may need several
   grants, as in Xen's periodic accounting). The test is O(1); the
   grant walks every VCPU, because blocked ones earn credit too. *)
let rec refill_if_exhausted t =
  if t.runnable_count > 0 && t.in_credit_count = 0 then begin
    t.refill_count <- t.refill_count + 1;
    (* lint: sorted — weighted credit grant commutes across VCPUs *)
    Hashtbl.iter
      (fun _ s ->
        set_credit t s (Stdlib.min (ceiling t s) (s.credit + grant t s)))
      t.vcpus;
    refill_if_exhausted t
  end

(* Periodic accounting tick (Xen fires this every 30 ms): the [cycles]
   of PCPU capacity that elapsed since the last tick are distributed
   among each PCPU's runnable VCPUs in proportion to weight, bounded
   by each VCPU's cap share of the interval, and clamped at
   initial_credit so nobody hoards. Because the grant rate equals the
   burn rate, credits stay balanced: a cap of [c] percent bounds a
   saturated VCPU to ~[c] percent of its PCPU, and a double-weight
   VCPU earns — and therefore runs — twice as much. *)
let periodic_refill t ~cycles =
  if cycles < 0 then
    invalid_arg "Credit_sched.periodic_refill: negative cycles";
  t.refill_count <- t.refill_count + 1;
  Array.iter
    (fun q ->
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
        let top =
          if s.cap = 0 then t.initial_credit else ceiling t s
        in
        set_credit t s (Stdlib.min top (s.credit + fair))
      done)
    t.runqs

let charge t ~pcpu ~cycles =
  if cycles < 0 then invalid_arg "Credit_sched.charge: negative cycles";
  check_pcpu t ~fn:"charge" pcpu;
  (match t.running.(pcpu) with
  | Some s ->
      set_credit t s (s.credit - cycles);
      s.enqueued_at <- next_stamp t (* requeue at the back *)
  | None -> ());
  refill_if_exhausted t

let current t ~pcpu =
  check_pcpu t ~fn:"current" pcpu;
  Option.map (fun s -> s.vcpu) t.running.(pcpu)

let credit_of t vcpu = (state t vcpu).credit
let switches t = t.switch_count
let refills t = t.refill_count

let run_to_completion t ~work ~switch_cost =
  if switch_cost < 0 then
    invalid_arg "Credit_sched.run_to_completion: negative switch cost";
  let remaining = Hashtbl.create 16 in
  List.iter
    (fun (vcpu, cycles) ->
      ignore (state t vcpu);
      if cycles < 0 then
        invalid_arg "Credit_sched.run_to_completion: negative work";
      Hashtbl.replace remaining vcpu
        (Option.value ~default:0 (Hashtbl.find_opt remaining vcpu) + cycles);
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
          let left = Hashtbl.find remaining vcpu in
          let slice = Stdlib.min left t.timeslice in
          pcpu_time.(pcpu) <- pcpu_time.(pcpu) + slice;
          charge t ~pcpu ~cycles:slice;
          let left' = left - slice in
          if left' <= 0 then begin
            Hashtbl.replace remaining vcpu 0;
            set_runnable t vcpu false
          end
          else Hashtbl.replace remaining vcpu left'
    done
  done;
  let total_switches = t.switch_count - switches_before in
  let makespan =
    Array.fold_left Stdlib.max 0 pcpu_time
    + (total_switches * switch_cost / Stdlib.max 1 t.num_pcpus)
  in
  (makespan, total_switches)
