(* M1: stat-marker label grammar.

   Every label interned with [Machine.marker] is a row key in
   `armvirt stat`: exit/entry markers drive the kvm_stat-style pairing,
   operation counters become op rows, and vswitch/wire counters become
   port statistics. A typo ("kvm_arm.exit/hvcc/p0", a missing "/p")
   doesn't fail anything at runtime — the label quietly parses as an
   unknown op and the row disappears from the table.

   This pass re-parses each literal with the exact
   [Armvirt_obs.Accounting.parse_label] the stat subcommand uses, and
   cross-checks exit reasons against the live [Armvirt_arch.Esr]
   mnemonic list, so the linter can never drift from the runtime
   grammar. Printf holes in format literals are neutralized first
   ([%d] -> a digit, [%s] -> a name) so legacy ksprintf sites are
   still checked structurally.

   Non-literal labels must come from the typed [Obs.Marker] builders —
   those constructors and [parse_label] live in the same library, so a
   builder-produced label is grammatical by construction. Literal
   [~reason:]/[~hyp:] arguments of the builders are checked too.

   The rule sits at the intern site: [Machine.count] takes an interned
   marker, so checking [Machine.marker] checks every counted label.
   [Machine.op] labels are priced steps ("arm.save.GP Regs"), free-form
   and outside the grammar, so they are not checked. A [Machine.marker]
   that is not applied to its label (a partial application, or the
   function passed as a value) is flagged: its label cannot be seen. *)

open Parsetree
module Esr = Armvirt_arch.Esr
module Accounting = Armvirt_obs.Accounting

let esr_reasons = List.map Esr.short_name Esr.all

let is_ident_name s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let is_op_name s =
  String.length s > 0
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       s

(* Replace printf holes with representative text so format literals can
   be parsed structurally: %d/%i -> a digit, %s -> an identifier. *)
let neutralize_holes label =
  let buf = Buffer.create (String.length label) in
  let n = String.length label in
  let rec go i =
    if i < n then
      if label.[i] = '%' && i + 1 < n then begin
        (match label.[i + 1] with
        | 'd' | 'i' -> Buffer.add_char buf '7'
        | 's' -> Buffer.add_char buf 'x'
        | c ->
            Buffer.add_char buf '%';
            Buffer.add_char buf c);
        go (i + 2)
      end
      else begin
        Buffer.add_char buf label.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let int_after prefix s =
  let np = String.length prefix in
  if String.length s > np && String.sub s 0 np = prefix then
    int_of_string_opt (String.sub s np (String.length s - np))
  else None

(* vswitch op grammar: "<name>/p<port>/(rx|tx|drop)" | "<name>/flood". *)
let vswitch_op_ok op =
  match String.split_on_char '/' op with
  | [ name; "flood" ] -> is_ident_name name
  | [ name; p; ("rx" | "tx" | "drop") ] ->
      is_ident_name name && int_after "p" p <> None
  | _ -> false

(* wire op grammar: "<name>-u<id>/(rx|tx)". *)
let wire_op_ok op =
  match String.split_on_char '/' op with
  | [ endpoint; ("rx" | "tx") ] -> (
      match String.rindex_opt endpoint '-' with
      | Some i ->
          is_ident_name (String.sub endpoint 0 i)
          && int_after "u"
               (String.sub endpoint (i + 1) (String.length endpoint - i - 1))
             <> None
      | None -> false)
  | _ -> false

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i j = j = nn || (hay.[i + j] = needle.[j] && at i (j + 1)) in
  let rec go i = i + nn <= nh && (at i 0 || go (i + 1)) in
  nn = 0 || go 0

let check_label_text label : string option =
  let label = neutralize_holes label in
  match Accounting.parse_label label with
  | None ->
      Some
        (Printf.sprintf
           "marker %S has no '<hyp>.' prefix: armvirt stat would drop it"
           label)
  | Some (Accounting.Exit { reason; hyp; _ }) ->
      if not (is_ident_name hyp) then
        Some (Printf.sprintf "marker %S: hypervisor %S is not an identifier"
                label hyp)
      else if not (List.mem reason esr_reasons) then
        Some
          (Printf.sprintf
             "marker %S: exit reason %S is not an Esr.short_name (valid: %s)"
             label reason
             (String.concat ", " esr_reasons))
      else None
  | Some (Accounting.Entry { hyp; _ }) ->
      if is_ident_name hyp then None
      else
        Some (Printf.sprintf "marker %S: hypervisor %S is not an identifier"
                label hyp)
  | Some (Accounting.Op { hyp = "vswitch"; op }) ->
      if vswitch_op_ok op then None
      else
        Some
          (Printf.sprintf
             "marker %S: vswitch counter must be \
              'vswitch.<name>/p<port>/(rx|tx|drop)' or 'vswitch.<name>/flood'"
             label)
  | Some (Accounting.Op { hyp = "wire"; op }) ->
      if wire_op_ok op then None
      else
        Some
          (Printf.sprintf
             "marker %S: wire counter must be 'wire.<name>-u<id>/(rx|tx)'"
             label)
  | Some (Accounting.Op { hyp; op }) ->
      if contains_sub op "exit" || contains_sub op "entry" then
        Some
          (Printf.sprintf
             "marker %S parses as an op, not an exit/entry: expected \
              '<hyp>.exit/<reason>/p<pcpu>[/d<domid>]' or \
              '<hyp>.entry/p<pcpu>[/d<domid>]'"
             label)
      else if not (is_ident_name hyp) then
        Some (Printf.sprintf "marker %S: hypervisor %S is not an identifier"
                label hyp)
      else if not (is_op_name op) then
        Some
          (Printf.sprintf
             "marker %S: op counter must be '<hyp>.<op>' with op in \
              [a-z0-9_]+"
             label)
      else None

(* --- AST plumbing ----------------------------------------------------- *)

let last2 segs =
  match List.rev segs with b :: a :: _ -> Some (a, b) | _ -> None

let is_marker_path lid =
  match last2 (Pass.flatten lid) with
  | Some ("Machine", "marker") -> true
  | _ -> false

(* The typed builders: labels produced by these are grammatical by
   construction (same module as the parser). *)
let builder_fns =
  [
    ("Marker", "exit");
    ("Marker", "exit_name");
    ("Marker", "entry");
    ("Marker", "op");
    ("Marker", "port");
    ("Marker", "flood");
    ("Marker", "uplink");
  ]

let builder_of lid =
  match last2 (Pass.flatten lid) with
  | Some pair when List.mem pair builder_fns -> Some pair
  | _ -> None

let string_lit e =
  match (e : expression).pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* Literal ~reason:/~hyp:/~op arguments of a builder call. *)
let check_builder_args ctx fn args =
  List.iter
    (fun (lbl, arg) ->
      match (lbl, string_lit arg) with
      | Asttypes.Labelled "reason", Some r ->
          if not (List.mem r esr_reasons) then
            Pass.emit ctx Rules.M1 arg.pexp_loc
              (Printf.sprintf
                 "~reason:%S is not an Esr.short_name (valid: %s)" r
                 (String.concat ", " esr_reasons))
      | Asttypes.Labelled ("hyp" | "switch"), Some h ->
          if not (is_ident_name h) then
            Pass.emit ctx Rules.M1 arg.pexp_loc
              (Printf.sprintf "~hyp:%S must be a bare identifier (no '.', '/')"
                 h)
      | Asttypes.Nolabel, Some s when snd fn = "op" ->
          if not (is_op_name s) then
            Pass.emit ctx Rules.M1 arg.pexp_loc
              (Printf.sprintf "op counter %S must match [a-z0-9_]+" s)
      | _ -> ())
    args

let unchecked =
  "Machine.marker label is neither a literal nor built by Obs.Marker: the \
   grammar cannot be checked"

let check_marker_label ctx (label : expression) =
  match string_lit label with
  | Some s -> (
      match check_label_text s with
      | Some msg -> Pass.emit ctx Rules.M1 label.pexp_loc msg
      | None -> ())
  | None -> (
      match label.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
          match builder_of txt with
          | Some _ -> () (* literal args checked when the walker visits it *)
          | None -> Pass.emit ctx Rules.M1 label.pexp_loc unchecked)
      | _ -> Pass.emit ctx Rules.M1 label.pexp_loc unchecked)

let unapplied =
  "Machine.marker is not applied to its label (partial application or \
   passed as a value): the grammar cannot be checked"

let run ctx (ast : Pass.ast) =
  let expr sub e =
    match e.pexp_desc with
    | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as f), args)
      when is_marker_path txt ->
        (* The label is the last unlabelled argument, after the machine. *)
        (match
           List.rev
             (List.filter_map
                (fun (lbl, a) ->
                  match lbl with Asttypes.Nolabel -> Some a | _ -> None)
                args)
         with
        | label :: _ :: _ -> check_marker_label ctx label
        | _ -> Pass.emit ctx Rules.M1 f.pexp_loc unapplied);
        List.iter (fun (_, a) -> sub.Ast_iterator.expr sub a) args
    | Pexp_ident { txt; _ } when is_marker_path txt ->
        Pass.emit ctx Rules.M1 e.pexp_loc unapplied
    | _ ->
        (match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
            Option.iter (fun fn -> check_builder_args ctx fn args) (builder_of txt)
        | _ -> ());
        Ast_iterator.default_iterator.expr sub e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  match ast with
  | Pass.Impl str -> it.structure it str
  | Pass.Intf sg -> it.signature it sg

let pass = { Pass.name = "markers"; rules = [ Rules.M1 ]; run }
