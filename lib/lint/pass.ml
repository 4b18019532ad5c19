(* Shared infrastructure for registered analysis passes. A pass declares
   the rule ids it implements and a [run] function over one parsed
   compilation unit; the engine filters and suppresses. *)

type finding = {
  rule : Rules.id;
  file : string;
  line : int;
  col : int;
  message : string;
}

let compare_finding a b =
  match compare (a.line, a.col) (b.line, b.col) with
  | 0 -> String.compare (Rules.to_string a.rule) (Rules.to_string b.rule)
  | c -> c

type ast =
  | Impl of Parsetree.structure
  | Intf of Parsetree.signature

type ctx = {
  relpath : string;
  active : Rules.id list;  (* requested minus file-wide-disabled *)
  mutable raw : finding list;  (* candidates; suppression applied later *)
}

let emit ctx rule (loc : Location.t) message =
  if List.mem rule ctx.active && Rules.applies ~relpath:ctx.relpath rule then
    ctx.raw <-
      {
        rule;
        file = ctx.relpath;
        line = loc.loc_start.pos_lnum;
        col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        message;
      }
      :: ctx.raw

type t = {
  name : string;  (* stable identifier in reports, e.g. "units" *)
  rules : Rules.id list;  (* every id this pass can emit *)
  run : ctx -> ast -> unit;
}

(* A pass only runs when at least one of its rules is active for the
   file, so scoping never pays for out-of-scope machinery. *)
let relevant pass ctx =
  List.exists
    (fun r -> List.mem r ctx.active && Rules.applies ~relpath:ctx.relpath r)
    pass.rules

(* --- helpers shared by several passes ------------------------------- *)

let flatten lid = try Longident.flatten lid with _ -> []

let dotted segs = String.concat "." segs

(* Unwrap type constraints, let-ins and sequences down to the expression
   that actually allocates; functions are never unwrapped (they allocate
   per call, not per module). *)
let rec alloc_root (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> alloc_root e
  | Pexp_let (_, _, e) | Pexp_sequence (_, e) | Pexp_open (_, e) ->
      alloc_root e
  | _ -> e

(* The identifier paths whose application allocates process-visible
   mutable state when bound at toplevel (R6 candidates, D1 capture
   targets). *)
let mutable_alloc_paths =
  [
    [ "ref" ];
    [ "Stdlib"; "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Atomic"; "make" ];
  ]

let is_mutable_alloc (e : Parsetree.expression) =
  match (alloc_root e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      List.mem (flatten txt) mutable_alloc_paths
  | _ -> false
