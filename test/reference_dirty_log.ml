(* The dirty log as it was before the leaf-array rewrite, kept verbatim
   as the oracle for test_mem's differential properties: Hashtbl tracked
   and dirty sets over the reference stage-2 table. Only test_mem uses
   it. *)

module Addr = Armvirt_mem.Addr
module Stage2 = Reference_stage2

type t = {
  stage2 : Stage2.t;
  tracked : (int, unit) Hashtbl.t;
      (* pages that were writable at [start]: the logged set. Pages the
         guest maps read-only are never demoted by us, so they must not
         be promoted by [stop] either. *)
  dirty : (int, unit) Hashtbl.t;
  mutable logging : bool;
  mutable wp_faults : int;
  mutable rounds : int;
}

let create stage2 =
  {
    stage2;
    tracked = Hashtbl.create 256;
    dirty = Hashtbl.create 256;
    logging = false;
    wp_faults = 0;
    rounds = 0;
  }

let stage2 t = t.stage2
let logging t = t.logging
let wp_faults t = t.wp_faults
let rounds t = t.rounds
let dirty_count t = Hashtbl.length t.dirty
let is_dirty t ~ipa_page = Hashtbl.mem t.dirty ipa_page
let tracked_count t = Hashtbl.length t.tracked

let protect t ipa_page =
  let pa = Stage2.translate t.stage2 (Addr.ipa_of_page ipa_page) in
  Stage2.map t.stage2 ~ipa_page ~pa_page:(Addr.pa_page pa) Stage2.Read_only

let unprotect t ipa_page =
  let pa = Stage2.translate t.stage2 (Addr.ipa_of_page ipa_page) in
  Stage2.map t.stage2 ~ipa_page ~pa_page:(Addr.pa_page pa) Stage2.Read_write

let start t =
  if t.logging then invalid_arg "Dirty_log.start: already logging";
  t.logging <- true;
  Hashtbl.reset t.tracked;
  Hashtbl.reset t.dirty;
  (* Demote every writable mapping so the next write to each page
     faults; remember which pages we demoted. *)
  Stage2.iter t.stage2 (fun ~ipa_page ~pa_page:_ perm ->
      if perm = Stage2.Read_write then Hashtbl.replace t.tracked ipa_page ());
  (* lint: sorted — per-page write-protects are independent, order-free *)
  Hashtbl.iter (fun ipa_page () -> protect t ipa_page) t.tracked

let stop t =
  if not t.logging then invalid_arg "Dirty_log.stop: not logging";
  t.logging <- false;
  (* Lift only the protection we installed: faulting on ordinary writes
     after the migration completes or aborts would be pure overhead. *)
  (* lint: sorted — per-page unprotects are independent, order-free *)
  Hashtbl.iter
    (fun ipa_page () ->
      if Stage2.permission t.stage2 ~ipa_page = Some Stage2.Read_only then
        unprotect t ipa_page)
    t.tracked;
  Hashtbl.reset t.tracked;
  Hashtbl.reset t.dirty

let write t ~ipa_page =
  if not t.logging then `Clean_hit
  else
    let ipa = Addr.ipa_of_page ipa_page in
    match Stage2.translate_write t.stage2 ipa with
    | _pa -> `Clean_hit
    | exception Stage2.Stage2_fault (Stage2.Permission _)
      when Hashtbl.mem t.tracked ipa_page ->
        (* First write to this page this round: the hypervisor marks the
           page dirty and restores write permission, so subsequent
           writes hit at full speed until the next harvest. *)
        unprotect t ipa_page;
        Hashtbl.replace t.dirty ipa_page ();
        t.wp_faults <- t.wp_faults + 1;
        `Wp_fault

let harvest t =
  if not t.logging then invalid_arg "Dirty_log.harvest: not logging";
  let pages =
    Hashtbl.fold (fun page () acc -> page :: acc) t.dirty []
    |> List.sort Int.compare
  in
  Hashtbl.reset t.dirty;
  (* Re-arm: each harvested page is write-protected again so the next
     round observes fresh writes. *)
  List.iter (fun ipa_page -> protect t ipa_page) pages;
  t.rounds <- t.rounds + 1;
  pages
