type t = {
  stage2 : Stage2.t;
  mutable tracked : int array;
      (* pages that were writable at [start], ascending: the logged set.
         Pages the guest maps read-only are never demoted by us, so they
         must not be promoted by [stop] either. A page's position here is
         its slot. *)
  mutable dirty_slot : Bytes.t;  (* per slot: dirty since the last harvest *)
  mutable dirty : int array;  (* dirty slots, in fault order *)
  mutable n_dirty : int;
  mutable logging : bool;
  mutable wp_faults : int;
  mutable rounds : int;
}

let create stage2 =
  {
    stage2;
    tracked = [||];
    dirty_slot = Bytes.empty;
    dirty = [||];
    n_dirty = 0;
    logging = false;
    wp_faults = 0;
    rounds = 0;
  }

let stage2 t = t.stage2
let logging t = t.logging
let wp_faults t = t.wp_faults
let rounds t = t.rounds
let dirty_count t = t.n_dirty
let tracked_count t = Array.length t.tracked

(* Binary search of [tracked.(lo..hi-1)]: the slot of [ipa_page], or -1.
   Top-level so a fault builds no closure. *)
let rec search tracked ipa_page lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let page = tracked.(mid) in
    if page = ipa_page then mid
    else if page < ipa_page then search tracked ipa_page (mid + 1) hi
    else search tracked ipa_page lo mid

let slot t ipa_page = search t.tracked ipa_page 0 (Array.length t.tracked)

let is_dirty t ~ipa_page =
  let s = slot t ipa_page in
  s >= 0 && Bytes.get t.dirty_slot s <> '\000'

let set_perm t ipa_page perm =
  let pa = Stage2.translate t.stage2 (Addr.ipa_of_page ipa_page) in
  Stage2.map t.stage2 ~ipa_page ~pa_page:(Addr.pa_page pa) perm

let reset t tracked =
  let n = Array.length tracked in
  t.tracked <- tracked;
  t.dirty_slot <- Bytes.make n '\000';
  t.dirty <- Array.make n 0;
  t.n_dirty <- 0

let start t =
  if t.logging then invalid_arg "Dirty_log.start: already logging";
  t.logging <- true;
  (* One ascending pass: demote every writable mapping so the next write
     to each page faults, and remember which pages we demoted. *)
  let tracked = Array.make (Stage2.mapping_count t.stage2) 0 in
  let n = ref 0 in
  Stage2.iter t.stage2 (fun ~ipa_page ~pa_page perm ->
      match perm with
      | Stage2.Read_only -> ()
      | Stage2.Read_write ->
          Stage2.map t.stage2 ~ipa_page ~pa_page Stage2.Read_only;
          tracked.(!n) <- ipa_page;
          incr n);
  reset t (Array.sub tracked 0 !n)

let stop t =
  if not t.logging then invalid_arg "Dirty_log.stop: not logging";
  t.logging <- false;
  (* Lift only the protection we installed: faulting on ordinary writes
     after the migration completes or aborts would be pure overhead. *)
  Array.iter
    (fun ipa_page ->
      match Stage2.permission t.stage2 ~ipa_page with
      | Some Stage2.Read_only -> set_perm t ipa_page Stage2.Read_write
      | Some Stage2.Read_write | None -> ())
    t.tracked;
  reset t [||]

let write t ~ipa_page =
  if not t.logging then `Clean_hit
  else
    match Stage2.permission t.stage2 ~ipa_page with
    | Some Stage2.Read_write -> `Clean_hit
    | None ->
        raise
          (Stage2.Stage2_fault (Stage2.Unmapped (Addr.ipa_of_page ipa_page)))
    | Some Stage2.Read_only ->
        let s = slot t ipa_page in
        if s < 0 then
          (* The guest's own read-only page: a real fault. *)
          raise
            (Stage2.Stage2_fault
               (Stage2.Permission (Addr.ipa_of_page ipa_page)));
        (* First write to this page this round: the hypervisor marks the
           page dirty and restores write permission, so subsequent
           writes hit at full speed until the next harvest. A page
           re-protected from outside faults again but stays listed
           once. *)
        set_perm t ipa_page Stage2.Read_write;
        if Bytes.get t.dirty_slot s = '\000' then begin
          Bytes.set t.dirty_slot s '\001';
          t.dirty.(t.n_dirty) <- s;
          t.n_dirty <- t.n_dirty + 1
        end;
        t.wp_faults <- t.wp_faults + 1;
        `Wp_fault

let harvest t =
  if not t.logging then invalid_arg "Dirty_log.harvest: not logging";
  (* Slots ascend with their pages, so sorting the slots sorts the
     pages. *)
  let slots = Array.sub t.dirty 0 t.n_dirty in
  Array.sort Int.compare slots;
  Array.iter (fun s -> Bytes.set t.dirty_slot s '\000') slots;
  t.n_dirty <- 0;
  let pages = Array.fold_right (fun s acc -> t.tracked.(s) :: acc) slots [] in
  (* Re-arm: each harvested page is write-protected again so the next
     round observes fresh writes. *)
  List.iter (fun ipa_page -> set_perm t ipa_page Stage2.Read_only) pages;
  t.rounds <- t.rounds + 1;
  pages
