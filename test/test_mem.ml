(* Tests for Armvirt_mem: address spaces, stage-2 tables, TLBs and Xen
   grant tables. *)

module Addr = Armvirt_mem.Addr
module Stage2 = Armvirt_mem.Stage2
module Tlb = Armvirt_mem.Tlb
module Grant_table = Armvirt_mem.Grant_table

(* --- Addr ----------------------------------------------------------- *)

let test_addr_pages () =
  let a = Addr.ipa ((7 * Addr.page_size) + 123) in
  Alcotest.(check int) "page" 7 (Addr.ipa_page a);
  Alcotest.(check int) "offset" 123 (Addr.ipa_offset a);
  Alcotest.(check int) "of_page" (7 * Addr.page_size)
    (Addr.ipa_to_int (Addr.ipa_of_page 7));
  Alcotest.check_raises "negative address"
    (Invalid_argument "Addr.ipa: negative address") (fun () ->
      ignore (Addr.ipa (-1)))

(* --- Stage2 --------------------------------------------------------- *)

let test_stage2_translate () =
  let s2 = Stage2.create () in
  Stage2.map s2 ~ipa_page:3 ~pa_page:100 Stage2.Read_write;
  let pa = Stage2.translate s2 (Addr.ipa ((3 * Addr.page_size) + 42)) in
  Alcotest.(check int) "offset preserved" ((100 * Addr.page_size) + 42)
    (Addr.pa_to_int pa);
  Alcotest.(check int) "mapping count" 1 (Stage2.mapping_count s2)

let test_stage2_fault_on_unmapped () =
  let s2 = Stage2.create () in
  (match Stage2.translate s2 (Addr.ipa 0) with
  | _ -> Alcotest.fail "expected stage-2 fault"
  | exception Stage2.Stage2_fault (Stage2.Unmapped _) -> ());
  Alcotest.(check bool) "translate_opt none" true
    (Stage2.translate_opt s2 (Addr.ipa 0) = None)

let test_stage2_permissions () =
  let s2 = Stage2.create () in
  Stage2.map s2 ~ipa_page:1 ~pa_page:50 Stage2.Read_only;
  (* Reads fine, writes fault. *)
  ignore (Stage2.translate s2 (Addr.ipa Addr.page_size));
  (match Stage2.translate_write s2 (Addr.ipa Addr.page_size) with
  | _ -> Alcotest.fail "expected permission fault"
  | exception Stage2.Stage2_fault (Stage2.Permission _) -> ());
  Alcotest.(check bool) "permission query" true
    (Stage2.permission s2 ~ipa_page:1 = Some Stage2.Read_only)

let test_stage2_remap_and_unmap () =
  let s2 = Stage2.create () in
  Stage2.map s2 ~ipa_page:2 ~pa_page:10 Stage2.Read_write;
  Stage2.map s2 ~ipa_page:2 ~pa_page:20 Stage2.Read_write;
  Alcotest.(check int) "remap replaces" 1 (Stage2.mapping_count s2);
  let pa = Stage2.translate s2 (Addr.ipa (2 * Addr.page_size)) in
  Alcotest.(check int) "newest mapping wins" 20 (Addr.pa_page pa);
  Stage2.unmap s2 ~ipa_page:2;
  Alcotest.(check bool) "unmapped" false (Stage2.mapped s2 ~ipa_page:2);
  (* Unmapping twice is a no-op, like invalidating an absent PTE. *)
  Stage2.unmap s2 ~ipa_page:2

let prop_stage2_roundtrip =
  QCheck.Test.make ~name:"stage2 map/translate roundtrip"
    QCheck.(list (pair (int_bound 1000) (int_bound 10000)))
    (fun mappings ->
      let s2 = Stage2.create () in
      List.iter
        (fun (ipa_page, pa_page) ->
          Stage2.map s2 ~ipa_page ~pa_page Stage2.Read_write)
        mappings;
      (* The last write per ipa_page wins; verify against a model. *)
      let model = Hashtbl.create 16 in
      List.iter (fun (i, p) -> Hashtbl.replace model i p) mappings;
      Hashtbl.fold
        (fun ipa_page pa_page acc ->
          acc
          && Addr.pa_page (Stage2.translate s2 (Addr.ipa_of_page ipa_page))
             = pa_page)
        model true)

let test_stage2_iter_sorted () =
  let s2 = Stage2.create () in
  List.iter
    (fun i -> Stage2.map s2 ~ipa_page:i ~pa_page:(100 + i) Stage2.Read_write)
    [ 5; 1; 3 ];
  let seen = ref [] in
  Stage2.iter s2 (fun ~ipa_page ~pa_page:_ _ -> seen := ipa_page :: !seen);
  Alcotest.(check (list int)) "ascending" [ 1; 3; 5 ] (List.rev !seen)

(* translate_opt answers exactly when translate would, and never raises,
   whatever map/unmap history the table has seen. *)
let prop_stage2_translate_opt =
  let op = QCheck.(pair bool (pair (int_bound 15) (int_bound 10000))) in
  QCheck.Test.make ~name:"stage2 translate_opt = translate or None"
    QCheck.(pair (list op) (list (pair (int_bound 15) (int_bound 4095))))
    (fun (ops, probes) ->
      let s2 = Stage2.create () in
      let mapped = Hashtbl.create 16 in
      List.iter
        (fun (is_map, (ipa_page, pa_page)) ->
          if is_map then begin
            Stage2.map s2 ~ipa_page ~pa_page Stage2.Read_write;
            Hashtbl.replace mapped ipa_page ()
          end
          else begin
            Stage2.unmap s2 ~ipa_page;
            Hashtbl.remove mapped ipa_page
          end)
        ops;
      List.for_all
        (fun (page, offset) ->
          let ipa = Addr.ipa ((page * Addr.page_size) + offset) in
          match Stage2.translate_opt s2 ipa with
          | Some pa ->
              Hashtbl.mem mapped page
              && Addr.equal_pa pa (Stage2.translate s2 ipa)
          | None -> not (Hashtbl.mem mapped page)
          | exception _ -> false)
        probes)

(* --- Tlb ------------------------------------------------------------ *)

let test_tlb_hit_miss () =
  let tlb = Tlb.create ~capacity:4 in
  Alcotest.(check bool) "cold miss" true (Tlb.lookup tlb ~ipa_page:1 = None);
  Tlb.insert tlb ~ipa_page:1 ~pa_page:100;
  Alcotest.(check bool) "hit" true (Tlb.lookup tlb ~ipa_page:1 = Some 100);
  Alcotest.(check int) "hits" 1 (Tlb.hits tlb);
  Alcotest.(check int) "misses" 1 (Tlb.misses tlb)

let test_tlb_lru_eviction () =
  let tlb = Tlb.create ~capacity:2 in
  Tlb.insert tlb ~ipa_page:1 ~pa_page:10;
  Tlb.insert tlb ~ipa_page:2 ~pa_page:20;
  ignore (Tlb.lookup tlb ~ipa_page:1) (* 1 is now most recent *);
  Tlb.insert tlb ~ipa_page:3 ~pa_page:30 (* evicts 2 *);
  Alcotest.(check bool) "1 survives" true (Tlb.lookup tlb ~ipa_page:1 <> None);
  Alcotest.(check bool) "2 evicted" true (Tlb.lookup tlb ~ipa_page:2 = None);
  Alcotest.(check bool) "3 present" true (Tlb.lookup tlb ~ipa_page:3 <> None)

let test_tlb_invalidation () =
  let tlb = Tlb.create ~capacity:8 in
  Tlb.insert tlb ~ipa_page:1 ~pa_page:10;
  Tlb.insert tlb ~ipa_page:2 ~pa_page:20;
  Tlb.invalidate_page tlb ~ipa_page:1;
  Alcotest.(check int) "one left" 1 (Tlb.entries tlb);
  Tlb.invalidate_all tlb;
  Alcotest.(check int) "flushed" 0 (Tlb.entries tlb)

let test_tlb_reinsert_resident () =
  let tlb = Tlb.create ~capacity:2 in
  Tlb.insert tlb ~ipa_page:1 ~pa_page:10;
  Tlb.insert tlb ~ipa_page:2 ~pa_page:20;
  Tlb.insert tlb ~ipa_page:1 ~pa_page:11 (* full, but 1 is resident *);
  Alcotest.(check int) "nothing evicted" 2 (Tlb.entries tlb);
  Tlb.insert tlb ~ipa_page:3 ~pa_page:30 (* 1 is most recent: evicts 2 *);
  Alcotest.(check (option int))
    "1 replaced" (Some 11) (Tlb.lookup tlb ~ipa_page:1);
  Alcotest.(check (option int)) "2 evicted" None (Tlb.lookup tlb ~ipa_page:2)

(* Reference LRU over a plain list, most recent first. *)
module Lru_model = struct
  type t = {
    capacity : int;
    mutable entries : (int * int) list;
    mutable hits : int;
    mutable misses : int;
  }

  let create capacity = { capacity; entries = []; hits = 0; misses = 0 }
  let invalidate_page m page = m.entries <- List.remove_assoc page m.entries

  let insert m page pa =
    invalidate_page m page;
    if List.length m.entries >= m.capacity then
      m.entries <- List.filteri (fun i _ -> i < m.capacity - 1) m.entries;
    m.entries <- (page, pa) :: m.entries

  let lookup m page =
    match List.assoc_opt page m.entries with
    | Some pa ->
        m.hits <- m.hits + 1;
        insert m page pa;
        Some pa
    | None ->
        m.misses <- m.misses + 1;
        None
end

type tlb_op =
  | Lookup of int
  | Insert of int * int
  | Invalidate_page of int
  | Invalidate_all

let tlb_op_to_string = function
  | Lookup p -> Printf.sprintf "lookup %d" p
  | Insert (p, pa) -> Printf.sprintf "insert %d->%d" p pa
  | Invalidate_page p -> Printf.sprintf "invalidate %d" p
  | Invalidate_all -> "invalidate_all"

let tlb_ops_arb =
  let open QCheck.Gen in
  let key = int_bound 15 in
  let op =
    frequency
      [
        (4, map (fun p -> Lookup p) key);
        (4, map2 (fun p pa -> Insert (p, pa)) key (int_bound 1000));
        (1, map (fun p -> Invalidate_page p) key);
        (1, return Invalidate_all);
      ]
  in
  QCheck.make
    ~print:QCheck.Print.(pair int (list tlb_op_to_string))
    (pair (int_range 1 8) (list_size (int_bound 200) op))

let prop_tlb_matches_lru_model =
  QCheck.Test.make ~name:"tlb matches a reference LRU" tlb_ops_arb
    (fun (capacity, ops) ->
      let tlb = Tlb.create ~capacity in
      let model = Lru_model.create capacity in
      List.for_all
        (fun op ->
          let same_lookup =
            match op with
            | Lookup p ->
                Option.equal Int.equal (Tlb.lookup tlb ~ipa_page:p)
                  (Lru_model.lookup model p)
            | Insert (p, pa) ->
                Tlb.insert tlb ~ipa_page:p ~pa_page:pa;
                Lru_model.insert model p pa;
                true
            | Invalidate_page p ->
                Tlb.invalidate_page tlb ~ipa_page:p;
                Lru_model.invalidate_page model p;
                true
            | Invalidate_all ->
                Tlb.invalidate_all tlb;
                model.entries <- [];
                true
          in
          same_lookup
          && Tlb.hits tlb = model.hits
          && Tlb.misses tlb = model.misses
          && Tlb.entries tlb = List.length model.entries)
        ops)

let prop_tlb_never_exceeds_capacity =
  QCheck.Test.make ~name:"tlb entries <= capacity"
    QCheck.(list (int_bound 100))
    (fun pages ->
      let tlb = Tlb.create ~capacity:8 in
      List.iter (fun p -> Tlb.insert tlb ~ipa_page:p ~pa_page:p) pages;
      Tlb.entries tlb <= 8)

(* --- Grant_table ----------------------------------------------------- *)

let test_grant_lifecycle () =
  let gt = Grant_table.create ~owner:1 in
  let gref = Grant_table.grant gt ~to_dom:0 ~ipa_page:42 Grant_table.Full in
  Alcotest.(check int) "active" 1 (Grant_table.active_grants gt);
  let page = Grant_table.map gt gref ~by:0 in
  Alcotest.(check int) "mapped page" 42 page;
  Alcotest.(check bool) "is mapped" true (Grant_table.is_mapped gt gref);
  Grant_table.unmap gt gref ~by:0;
  Grant_table.revoke gt gref;
  Alcotest.(check int) "gone" 0 (Grant_table.active_grants gt)

let check_grant_error expected f =
  match f () with
  | _ -> Alcotest.fail "expected Grant_error"
  | exception Grant_table.Grant_error e ->
      Alcotest.(check string) "error" expected
        (Format.asprintf "%a" Grant_table.pp_error e)

let test_grant_wrong_domain () =
  let gt = Grant_table.create ~owner:1 in
  let gref = Grant_table.grant gt ~to_dom:0 ~ipa_page:1 Grant_table.Full in
  check_grant_error "grant mapped by domain 5 but granted to 0" (fun () ->
      Grant_table.map gt gref ~by:5)

let test_grant_double_map () =
  let gt = Grant_table.create ~owner:1 in
  let gref = Grant_table.grant gt ~to_dom:0 ~ipa_page:1 Grant_table.Full in
  ignore (Grant_table.map gt gref ~by:0);
  check_grant_error
    (Printf.sprintf "grant %d already mapped" (Grant_table.gref_to_int gref))
    (fun () -> Grant_table.map gt gref ~by:0)

let test_grant_revoke_busy () =
  (* The invariant whose x86 enforcement needs TLB shootdowns: a grant
     cannot be pulled while the peer still has it mapped. *)
  let gt = Grant_table.create ~owner:1 in
  let gref = Grant_table.grant gt ~to_dom:0 ~ipa_page:1 Grant_table.Full in
  ignore (Grant_table.map gt gref ~by:0);
  check_grant_error
    (Printf.sprintf "grant %d still mapped (busy)" (Grant_table.gref_to_int gref))
    (fun () -> Grant_table.revoke gt gref);
  Grant_table.unmap gt gref ~by:0;
  Grant_table.revoke gt gref

let test_grant_unknown_ref () =
  (* A revoked reference is dead: using it must fail loudly. *)
  let gt = Grant_table.create ~owner:1 in
  let gref = Grant_table.grant gt ~to_dom:0 ~ipa_page:1 Grant_table.Full in
  Grant_table.revoke gt gref;
  check_grant_error
    (Printf.sprintf "unknown grant reference %d" (Grant_table.gref_to_int gref))
    (fun () -> Grant_table.map gt gref ~by:0)

let test_grant_unmap_not_mapped () =
  let gt = Grant_table.create ~owner:1 in
  let gref = Grant_table.grant gt ~to_dom:0 ~ipa_page:1 Grant_table.Readonly in
  check_grant_error
    (Printf.sprintf "grant %d not mapped" (Grant_table.gref_to_int gref))
    (fun () -> Grant_table.unmap gt gref ~by:0);
  Alcotest.(check bool) "access recorded" true
    (Grant_table.access_of gt gref = Some Grant_table.Readonly)

let prop_grant_mapped_bounded =
  QCheck.Test.make ~name:"mapped grants never exceed active grants"
    QCheck.(list (int_bound 3))
    (fun ops ->
      let gt = Grant_table.create ~owner:1 in
      let grefs = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              grefs :=
                Grant_table.grant gt ~to_dom:0 ~ipa_page:1 Grant_table.Full
                :: !grefs
          | 1 -> (
              match !grefs with
              | g :: _ -> ( try ignore (Grant_table.map gt g ~by:0) with _ -> ())
              | [] -> ())
          | 2 -> (
              match !grefs with
              | g :: _ -> ( try Grant_table.unmap gt g ~by:0 with _ -> ())
              | [] -> ())
          | _ -> (
              match !grefs with
              | g :: rest -> (
                  try
                    Grant_table.revoke gt g;
                    grefs := rest
                  with _ -> ())
              | [] -> ()))
        ops;
      Grant_table.mapped_grants gt <= Grant_table.active_grants gt)

(* --- Stage1 (guest tables + the 2D walk) ------------------------------- *)

module Stage1 = Armvirt_mem.Stage1

let backed_stage2 stage1 ~data_pages =
  let s2 = Stage2.create () in
  List.iter
    (fun ipa_page ->
      Stage2.map s2 ~ipa_page ~pa_page:(0x80000 + ipa_page) Stage2.Read_write)
    (data_pages @ Stage1.table_pages stage1);
  s2

let test_stage1_roundtrip () =
  let s1 = Stage1.create ~table_base_ipa_page:0x9000 in
  Stage1.map s1 ~va_page:0x12345 ~ipa_page:0x400;
  Stage1.map s1 ~va_page:0x12346 ~ipa_page:0x401;
  let ipa = Stage1.translate s1 (Addr.va ((0x12345 * Addr.page_size) + 42)) in
  Alcotest.(check int) "page" 0x400 (Addr.ipa_page ipa);
  Alcotest.(check int) "offset preserved" 42 (Addr.ipa_offset ipa);
  (match Stage1.translate s1 (Addr.va 0) with
  | _ -> Alcotest.fail "expected fault"
  | exception Stage1.Translation_fault _ -> ());
  (* Adjacent pages share intermediate tables: 4 nodes, not 8. *)
  Alcotest.(check int) "shared table nodes" Stage1.levels
    (List.length (Stage1.table_pages s1))

let test_stage1_2d_walk_access_count () =
  let s1 = Stage1.create ~table_base_ipa_page:0x9000 in
  Stage1.map s1 ~va_page:0x12345 ~ipa_page:0x400;
  let s2 = backed_stage2 s1 ~data_pages:[ 0x400 ] in
  let pa, accesses =
    Stage1.walk_2d s1 s2 (Addr.va ((0x12345 * Addr.page_size) + 7))
  in
  Alcotest.(check int) "the classic 24-access nested walk" 24 accesses;
  Alcotest.(check int) "constants agree" Stage1.two_d_walk_accesses accesses;
  Alcotest.(check int) "native is 4" 4 Stage1.native_walk_accesses;
  (* And it lands on the machine page stage-2 assigned. *)
  Alcotest.(check int) "final PA" (0x80000 + 0x400) (Addr.pa_page pa);
  Alcotest.(check int) "offset" 7 (Addr.pa_to_int pa mod Addr.page_size)

let test_stage1_walk_needs_backed_tables () =
  (* If the hypervisor has not backed the guest's page-table pages in
     stage-2, the walker itself faults — a real boot-time ordering
     constraint. *)
  let s1 = Stage1.create ~table_base_ipa_page:0x9000 in
  Stage1.map s1 ~va_page:0x12345 ~ipa_page:0x400;
  let s2 = Stage2.create () in
  Stage2.map s2 ~ipa_page:0x400 ~pa_page:0x500 Stage2.Read_write;
  match Stage1.walk_2d s1 s2 (Addr.va (0x12345 * Addr.page_size)) with
  | _ -> Alcotest.fail "expected a stage-2 fault on the table page"
  | exception Stage2.Stage2_fault (Stage2.Unmapped _) -> ()

let prop_stage1_model =
  QCheck.Test.make ~name:"stage1 translate agrees with a flat model"
    QCheck.(list (pair (int_bound 100_000) (int_bound 100_000)))
    (fun mappings ->
      let s1 = Stage1.create ~table_base_ipa_page:1_000_000 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (va_page, ipa_page) ->
          Stage1.map s1 ~va_page ~ipa_page;
          Hashtbl.replace model va_page ipa_page)
        mappings;
      Hashtbl.fold
        (fun va_page ipa_page ok ->
          ok
          && Addr.ipa_page (Stage1.translate s1 (Addr.va (va_page * Addr.page_size)))
             = ipa_page)
        model true)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mem"
    [
      ("addr", [ Alcotest.test_case "pages and offsets" `Quick test_addr_pages ]);
      ( "stage2",
        [
          Alcotest.test_case "translate" `Quick test_stage2_translate;
          Alcotest.test_case "fault on unmapped" `Quick
            test_stage2_fault_on_unmapped;
          Alcotest.test_case "permissions" `Quick test_stage2_permissions;
          Alcotest.test_case "remap and unmap" `Quick test_stage2_remap_and_unmap;
          Alcotest.test_case "iter sorted" `Quick test_stage2_iter_sorted;
        ]
        @ qcheck [ prop_stage2_roundtrip; prop_stage2_translate_opt ] );
      ( "tlb",
        [
          Alcotest.test_case "hit and miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_tlb_lru_eviction;
          Alcotest.test_case "invalidation" `Quick test_tlb_invalidation;
          Alcotest.test_case "re-insert resident at capacity" `Quick
            test_tlb_reinsert_resident;
        ]
        @ qcheck
            [ prop_tlb_never_exceeds_capacity; prop_tlb_matches_lru_model ] );
      ( "stage1",
        [
          Alcotest.test_case "roundtrip" `Quick test_stage1_roundtrip;
          Alcotest.test_case "24-access 2D walk" `Quick
            test_stage1_2d_walk_access_count;
          Alcotest.test_case "walker needs backed tables" `Quick
            test_stage1_walk_needs_backed_tables;
        ]
        @ qcheck [ prop_stage1_model ] );
      ( "grant_table",
        [
          Alcotest.test_case "lifecycle" `Quick test_grant_lifecycle;
          Alcotest.test_case "wrong domain" `Quick test_grant_wrong_domain;
          Alcotest.test_case "double map" `Quick test_grant_double_map;
          Alcotest.test_case "revoke while mapped" `Quick test_grant_revoke_busy;
          Alcotest.test_case "unknown ref" `Quick test_grant_unknown_ref;
          Alcotest.test_case "unmap not mapped" `Quick
            test_grant_unmap_not_mapped;
        ]
        @ qcheck [ prop_grant_mapped_bounded ] );
    ]
