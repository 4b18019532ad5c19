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

(* Any non-negative guest frame maps without memory in proportion to it;
   a machine frame a PTE cannot hold is rejected like a negative one. *)
let test_stage2_frame_limits () =
  let s2 = Stage2.create () in
  Stage2.map s2 ~ipa_page:max_int ~pa_page:(max_int lsr 1) Stage2.Read_only;
  Alcotest.(check bool) "top frame mapped" true
    (Stage2.mapped s2 ~ipa_page:max_int);
  let seen = ref [] in
  Stage2.iter s2 (fun ~ipa_page ~pa_page _ ->
      seen := (ipa_page, pa_page) :: !seen);
  Alcotest.(check (list (pair int int)))
    "iter" [ (max_int, max_int lsr 1) ] !seen;
  List.iter
    (fun (ipa_page, pa_page) ->
      match Stage2.map s2 ~ipa_page ~pa_page Stage2.Read_write with
      | () -> Alcotest.failf "map %d -> %d accepted" ipa_page pa_page
      | exception Invalid_argument _ -> ())
    [ (-1, 0); (0, -1); (0, (max_int lsr 1) + 1); (0, max_int) ];
  Alcotest.(check int) "rejected maps left no mapping" 1
    (Stage2.mapping_count s2);
  Alcotest.(check bool) "negative frame never mapped" false
    (Stage2.mapped s2 ~ipa_page:(-1))

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

(* --- Stage2 and Dirty_log against the per-page Hashtbl oracles ---------- *)

(* Each program runs on the leaf table and on the reference
   (test/reference_stage2.ml, test/reference_dirty_log.ml) in lockstep;
   after every step both must print the same observations: results,
   exception payloads and the whole table. *)

module Dirty_log = Armvirt_mem.Dirty_log

module type STAGE2 = sig
  type t
  type perm = Read_only | Read_write
  type fault = Unmapped of Addr.ipa | Permission of Addr.ipa

  exception Stage2_fault of fault

  val create : unit -> t
  val map : t -> ipa_page:int -> pa_page:int -> perm -> unit
  val unmap : t -> ipa_page:int -> unit
  val translate : t -> Addr.ipa -> Addr.pa
  val translate_write : t -> Addr.ipa -> Addr.pa
  val translate_opt : t -> Addr.ipa -> Addr.pa option
  val mapped : t -> ipa_page:int -> bool
  val permission : t -> ipa_page:int -> perm option
  val mapping_count : t -> int
  val iter : t -> (ipa_page:int -> pa_page:int -> perm -> unit) -> unit
  val pp_fault : Format.formatter -> fault -> unit
end

module type DIRTY_LOG = sig
  type t
  type stage2

  val create : stage2 -> t
  val stage2 : t -> stage2
  val start : t -> unit
  val stop : t -> unit
  val write : t -> ipa_page:int -> [ `Clean_hit | `Wp_fault ]
  val harvest : t -> int list
  val dirty_count : t -> int
  val is_dirty : t -> ipa_page:int -> bool
  val tracked_count : t -> int
  val wp_faults : t -> int
  val rounds : t -> int
  val logging : t -> bool
end

(* Pages on both sides of leaf boundaries, and sparse ones far apart. *)
let edge_pages =
  [ 0; 1; 510; 511; 512; 513; 1022; 1023; 1024; 1025; 1100; 0x9000;
    1_000_000; 1_000_511; 1_000_512 ]

let page_gen =
  QCheck.Gen.(frequency [ (3, int_bound 1100); (2, oneofl edge_pages) ])

let pa_page_gen = QCheck.Gen.int_bound 0xfffff
let pa_string pa = Printf.sprintf "pa %#x" (Addr.pa_to_int pa)
let option_string f = function None -> "none" | Some x -> f x

(* One address per probe page, at an offset that varies with the page. *)
let probe_ipa page = Addr.ipa ((page * Addr.page_size) + (page * 7 mod 4096))

type s2_op =
  | S2_map of int * int * bool  (* ipa page, pa page, writable *)
  | S2_unmap of int
  | S2_iter of s2_op list
      (* iterate; the callback's [i]th visit applies the [i]th op *)

type dl_op =
  | Dl_start
  | Dl_stop
  | Dl_harvest
  | Dl_write of int
  | Dl_map of int * int * bool  (* a remap from outside the log *)
  | Dl_unmap of int

(* A small page set, so writes, remaps and unmaps meet the same pages. *)
let dl_pages =
  List.init 12 Fun.id @ [ 511; 512; 1023; 1024; 0x9000; 1_000_000 ]

let pages_string pages = String.concat "," (List.map string_of_int pages)

(* Everything a program observes, as text both sides share: the two
   fault types print alike through their [pp_fault]. *)
module Observer (S : STAGE2) (D : DIRTY_LOG with type stage2 := S.t) = struct
  let observe f =
    match f () with
    | s -> s
    | exception S.Stage2_fault fault ->
        Format.asprintf "fault: %a" S.pp_fault fault
    | exception Invalid_argument msg -> "invalid_arg: " ^ msg

  let perm_string = function S.Read_only -> "ro" | S.Read_write -> "rw"
  let perm_of_writable w = if w then S.Read_write else S.Read_only

  (* The whole table: count, the iter sequence, and every query at each
     probe page. *)
  let stage2_state s2 probes =
    let b = Buffer.create 512 in
    Printf.bprintf b "count %d |" (S.mapping_count s2);
    S.iter s2 (fun ~ipa_page ~pa_page perm ->
        Printf.bprintf b " %d->%d %s" ipa_page pa_page (perm_string perm));
    List.iter
      (fun page ->
        let ipa = probe_ipa page in
        Printf.bprintf b " | %d: %s %s %s %s %b" page
          (observe (fun () -> pa_string (S.translate s2 ipa)))
          (observe (fun () -> pa_string (S.translate_write s2 ipa)))
          (option_string pa_string (S.translate_opt s2 ipa))
          (option_string perm_string (S.permission s2 ~ipa_page:page))
          (S.mapped s2 ~ipa_page:page))
      probes;
    Buffer.contents b

  let rec run_s2_op s2 = function
    | S2_map (ipa_page, pa_page, w) ->
        S.map s2 ~ipa_page ~pa_page (perm_of_writable w);
        "ok"
    | S2_unmap ipa_page ->
        S.unmap s2 ~ipa_page;
        "ok"
    | S2_iter ops ->
        let pending = ref ops and seen = Buffer.create 64 in
        S.iter s2 (fun ~ipa_page ~pa_page perm ->
            Printf.bprintf seen "%d->%d %s;" ipa_page pa_page
              (perm_string perm);
            match !pending with
            | op :: rest ->
                pending := rest;
                ignore (run_s2_op s2 op)
            | [] -> ());
        Buffer.contents seen

  let write_string = function `Clean_hit -> "clean" | `Wp_fault -> "wp_fault"

  let run_dl_op d = function
    | Dl_start ->
        D.start d;
        "ok"
    | Dl_stop ->
        D.stop d;
        "ok"
    | Dl_harvest -> pages_string (D.harvest d)
    | Dl_write ipa_page -> write_string (D.write d ~ipa_page)
    | Dl_map (ipa_page, pa_page, w) ->
        S.map (D.stage2 d) ~ipa_page ~pa_page (perm_of_writable w);
        "ok"
    | Dl_unmap ipa_page ->
        S.unmap (D.stage2 d) ~ipa_page;
        "ok"

  let dl_state d =
    Printf.sprintf "logging %b dirty %d tracked %d faults %d rounds %d [%s] %s"
      (D.logging d) (D.dirty_count d) (D.tracked_count d) (D.wp_faults d)
      (D.rounds d)
      (pages_string
         (List.filter (fun ipa_page -> D.is_dirty d ~ipa_page) dl_pages))
      (stage2_state (D.stage2 d) dl_pages)

  (* Each op's result and the state right after it. *)
  let trace run state ops =
    List.map
      (fun op ->
        let result = observe (fun () -> run op) in
        (result, state ()))
      ops

  let stage2_trace probes ops =
    let s2 = S.create () in
    trace (run_s2_op s2) (fun () -> stage2_state s2 probes) ops

  (* [initial] gives each page writable, guest read-only or unmapped. *)
  let dirty_log_trace (initial, ops) =
    let s2 = S.create () in
    List.iter
      (fun (ipa_page, pa_page, kind) ->
        match kind with
        | `Rw -> S.map s2 ~ipa_page ~pa_page S.Read_write
        | `Ro -> S.map s2 ~ipa_page ~pa_page S.Read_only
        | `Unmapped -> ())
      initial;
    let d = D.create s2 in
    trace (run_dl_op d) (fun () -> dl_state d) ops
end

module Leaf = Observer (Stage2) (Dirty_log)
module Oracle = Observer (Reference_stage2) (Reference_dirty_log)

(* Both sides' (result, state) after each op must be equal; the first
   difference fails with both. *)
let same_trace to_string ops got want =
  List.for_all2
    (fun op ((g, g_state), (w, w_state)) ->
      if g <> w || g_state <> w_state then
        QCheck.Test.fail_reportf "after %s:\n got  %s\n  %s\n want %s\n  %s"
          (to_string op) g g_state w w_state;
      true)
    ops (List.combine got want)

let rec s2_op_to_string = function
  | S2_map (ipa, pa, w) ->
      Printf.sprintf "map %d->%d %s" ipa pa (if w then "rw" else "ro")
  | S2_unmap ipa -> Printf.sprintf "unmap %d" ipa
  | S2_iter ops ->
      Printf.sprintf "iter [%s]"
        (String.concat "; " (List.map s2_op_to_string ops))

let s2_edit_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map3 (fun i p w -> S2_map (i, p, w)) page_gen pa_page_gen bool);
        (1, map (fun i -> S2_unmap i) page_gen);
      ])

let s2_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, s2_edit_gen);
        (1, map (fun ops -> S2_iter ops) (list_size (int_bound 6) s2_edit_gen));
      ])

let rec s2_pages = function
  | S2_map (i, _, _) | S2_unmap i -> [ i ]
  | S2_iter ops -> List.concat_map s2_pages ops

let prop_stage2_matches_reference =
  QCheck.Test.make ~count:300 ~name:"stage2 matches the per-page Hashtbl table"
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map s2_op_to_string ops))
       QCheck.Gen.(list_size (int_bound 40) s2_op_gen))
    (fun ops ->
      let probes =
        List.sort_uniq Int.compare (edge_pages @ List.concat_map s2_pages ops)
      in
      same_trace s2_op_to_string ops
        (Leaf.stage2_trace probes ops)
        (Oracle.stage2_trace probes ops))

let dl_op_to_string = function
  | Dl_start -> "start"
  | Dl_stop -> "stop"
  | Dl_harvest -> "harvest"
  | Dl_write p -> Printf.sprintf "write %d" p
  | Dl_map (i, p, w) ->
      Printf.sprintf "map %d->%d %s" i p (if w then "rw" else "ro")
  | Dl_unmap i -> Printf.sprintf "unmap %d" i

let dl_page_gen = QCheck.Gen.oneofl dl_pages

let dl_op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Dl_start);
        (1, return Dl_stop);
        (2, return Dl_harvest);
        (10, map (fun p -> Dl_write p) dl_page_gen);
        (2, map3 (fun i p w -> Dl_map (i, p, w)) dl_page_gen pa_page_gen bool);
        (1, map (fun i -> Dl_unmap i) dl_page_gen);
      ])

let dl_initial_gen =
  QCheck.Gen.(
    flatten_l
      (List.map
         (fun page ->
           map2
             (fun kind pa -> (page, pa, kind))
             (frequencyl [ (3, `Rw); (1, `Ro); (1, `Unmapped) ])
             pa_page_gen)
         dl_pages))

let print_dl_program (initial, ops) =
  String.concat "\n"
    (List.filter_map
       (fun (page, pa, kind) ->
         match kind with
         | `Rw -> Some (Printf.sprintf "init %d->%d rw" page pa)
         | `Ro -> Some (Printf.sprintf "init %d->%d ro" page pa)
         | `Unmapped -> None)
       initial
    @ List.map dl_op_to_string ops)

let dl_program_agrees ((_, ops) as program) =
  same_trace dl_op_to_string ops
    (Leaf.dirty_log_trace program)
    (Oracle.dirty_log_trace program)

let prop_dirty_log_matches_reference =
  QCheck.Test.make ~count:500 ~name:"dirty log matches the Hashtbl dirty log"
    (QCheck.make ~print:print_dl_program
       QCheck.Gen.(pair dl_initial_gen (list_size (int_bound 60) dl_op_gen)))
    dl_program_agrees

(* Every case the random programs are meant to reach, spelled out once:
   idle calls, writes while idle, guest read-only and unmapped pages, a
   dirty page re-protected mid-round (listed once), a dirty page
   unmapped before harvest, and a page remapped while tracked. *)
let prop_dirty_log_scripted =
  let initial =
    [ (0, 100, `Rw); (1, 101, `Ro); (2, 102, `Unmapped); (511, 600, `Rw);
      (512, 601, `Rw); (1023, 602, `Ro); (0x9000, 700, `Rw) ]
  and ops =
    [ Dl_harvest; Dl_stop; Dl_write 0; Dl_write 2; Dl_start; Dl_start;
      Dl_write 1; Dl_write 2; Dl_write 0; Dl_write 0; Dl_map (0, 100, false);
      Dl_write 0; Dl_write 511; Dl_write 512; Dl_harvest; Dl_write 512;
      Dl_write 0x9000; Dl_unmap 512; Dl_harvest; Dl_write 511;
      Dl_map (511, 900, false); Dl_write 511; Dl_map (2, 103, false);
      Dl_write 2; Dl_harvest; Dl_write 0; Dl_stop; Dl_write 0; Dl_stop;
      Dl_harvest; Dl_start; Dl_write 1023; Dl_write 0x9000; Dl_stop ]
  in
  QCheck.Test.make ~count:1 ~name:"dirty log matches on the scripted program"
    (QCheck.make ~print:print_dl_program (QCheck.Gen.return (initial, ops)))
    dl_program_agrees

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

  let insert m page pa =
    m.entries <- List.remove_assoc page m.entries;
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

type tlb_op = Lookup of int | Insert of int * int

let tlb_op_to_string = function
  | Lookup p -> Printf.sprintf "lookup %d" p
  | Insert (p, pa) -> Printf.sprintf "insert %d->%d" p pa

let tlb_ops_arb =
  let open QCheck.Gen in
  let key = int_bound 15 in
  let op =
    frequency
      [
        (4, map (fun p -> Lookup p) key);
        (4, map2 (fun p pa -> Insert (p, pa)) key (int_bound 1000));
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
  let gt = Grant_table.create () in
  let gref = Grant_table.grant gt ~to_dom:0 ~ipa_page:42 Grant_table.Full in
  Alcotest.(check int) "active" 1 (Grant_table.active_grants gt);
  let page = Grant_table.map gt gref ~by:0 in
  Alcotest.(check int) "mapped page" 42 page;
  Alcotest.(check bool) "is mapped" true (Grant_table.is_mapped gt gref);
  Grant_table.unmap gt gref ~by:0;
  Alcotest.(check int) "unmapped" 0 (Grant_table.mapped_grants gt)

let check_grant_error expected f =
  match f () with
  | _ -> Alcotest.fail "expected Grant_error"
  | exception Grant_table.Grant_error e ->
      Alcotest.(check bool) "error" true (e = expected)

let test_grant_wrong_domain () =
  let gt = Grant_table.create () in
  let gref = Grant_table.grant gt ~to_dom:0 ~ipa_page:1 Grant_table.Full in
  check_grant_error (Grant_table.Wrong_domain { expected = 0; actual = 5 })
    (fun () -> Grant_table.map gt gref ~by:5)

let test_grant_double_map () =
  let gt = Grant_table.create () in
  let gref = Grant_table.grant gt ~to_dom:0 ~ipa_page:1 Grant_table.Full in
  ignore (Grant_table.map gt gref ~by:0);
  check_grant_error
    (Grant_table.Already_mapped (Grant_table.gref_to_int gref))
    (fun () -> Grant_table.map gt gref ~by:0)

let test_grant_unknown_ref () =
  (* A reference this table never granted must fail loudly. *)
  let gt = Grant_table.create () and other = Grant_table.create () in
  ignore (Grant_table.grant other ~to_dom:0 ~ipa_page:1 Grant_table.Full);
  let gref = Grant_table.grant other ~to_dom:0 ~ipa_page:2 Grant_table.Full in
  check_grant_error
    (Grant_table.Unknown_ref (Grant_table.gref_to_int gref))
    (fun () -> Grant_table.map gt gref ~by:0)

let test_grant_unmap_not_mapped () =
  let gt = Grant_table.create () in
  let gref = Grant_table.grant gt ~to_dom:0 ~ipa_page:1 Grant_table.Readonly in
  check_grant_error
    (Grant_table.Not_mapped (Grant_table.gref_to_int gref))
    (fun () -> Grant_table.unmap gt gref ~by:0);
  Alcotest.(check bool) "access recorded" true
    (Grant_table.access_of gt gref = Some Grant_table.Readonly)

let prop_grant_mapped_bounded =
  QCheck.Test.make ~name:"mapped grants never exceed active grants"
    QCheck.(list (int_bound 2))
    (fun ops ->
      let gt = Grant_table.create () in
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
          | _ -> (
              match !grefs with
              | g :: _ -> ( try Grant_table.unmap gt g ~by:0 with _ -> ())
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
  let s2 = backed_stage2 s1 ~data_pages:[ 0x400; 0x401 ] in
  let pa, _ = Stage1.walk_2d s1 s2 (Addr.va ((0x12345 * Addr.page_size) + 42)) in
  Alcotest.(check int) "page" (0x80000 + 0x400) (Addr.pa_page pa);
  Alcotest.(check int) "offset preserved" 42
    (Addr.pa_to_int pa mod Addr.page_size);
  (match Stage1.walk_2d s1 s2 (Addr.va 0) with
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
  QCheck.Test.make ~name:"stage1 walk agrees with a flat model"
    QCheck.(list (pair (int_bound 100_000) (int_bound 100_000)))
    (fun mappings ->
      let s1 = Stage1.create ~table_base_ipa_page:1_000_000 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (va_page, ipa_page) ->
          Stage1.map s1 ~va_page ~ipa_page;
          Hashtbl.replace model va_page ipa_page)
        mappings;
      let s2 =
        backed_stage2 s1
          ~data_pages:(Hashtbl.fold (fun _ ipa acc -> ipa :: acc) model [])
      in
      Hashtbl.fold
        (fun va_page ipa_page ok ->
          ok
          && Addr.pa_page
               (fst (Stage1.walk_2d s1 s2 (Addr.va (va_page * Addr.page_size))))
             = 0x80000 + ipa_page)
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
          Alcotest.test_case "frame limits" `Quick test_stage2_frame_limits;
        ]
        @ qcheck
            [
              prop_stage2_roundtrip;
              prop_stage2_translate_opt;
              prop_stage2_matches_reference;
            ] );
      ( "dirty_log",
        qcheck [ prop_dirty_log_matches_reference; prop_dirty_log_scripted ] );
      ( "tlb",
        [
          Alcotest.test_case "hit and miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_tlb_lru_eviction;
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
          Alcotest.test_case "unknown ref" `Quick test_grant_unknown_ref;
          Alcotest.test_case "unmap not mapped" `Quick
            test_grant_unmap_not_mapped;
        ]
        @ qcheck [ prop_grant_mapped_bounded ] );
    ]
