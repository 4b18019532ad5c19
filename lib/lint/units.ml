(* U1/U2: units-of-measure inference over identifier suffixes.

   The repo's cost arithmetic composes cycles (Table I/III paths),
   microseconds (migration downtime), bytes/KiB (guest memory) and Gbps
   (wire rates); a silent cross-unit [+] corrupts a headline number
   without failing any test. This pass assigns each expression a point
   in a small unit lattice,

       Unknown  (top: no information, compatible with everything)
       Unit u   (a named dimension-and-scale, e.g. "us", "cycles")
       Unitless (a literal constant)

   inferred purely syntactically:

   - identifiers and record fields carry the unit of their last
     '_'-separated token when it is a known suffix (so [downtime_us],
     [t.link_gbps], [bytes]); names containing "_per_" are rates whose
     dimension is contextual and stay Unknown;
   - applications carry the unit of the applied function's name, with
     converter naming respected: [<u>_of_<v>] and [<u>_of] return [u],
     [to_<u>] returns [u], [of_<v>] returns Unknown (but its argument is
     checked against [v]); [Cycles.of_us]/[Cycles.of_int]/[Cycles.to_int]
     and friends are special-cased because their results are cycles;
   - [+]/[-]/[+.]/[-.] propagate the operands' join; [*], [/] and
     everything else erase to Unknown (products change dimension).

   Checks, all additive-composition sites only:

   - U1: both operands of +/-/comparison carry different units; a
     let-binding / record field / labelled argument whose name carries
     unit [u] receives an expression carrying [v <> u]; a converter's
     payload argument carries a unit other than the converter's source.
   - U2: a nonzero literal (other than 1) meets a unit-carrying value in
     +/-/comparison. 0 is unit-polymorphic and 1 is the counting idiom;
     literals bound directly at a unit-suffixed declaration are the
     sanctioned constant entry points and do not flag.

   Escapes: a named converter at the site, or an audited
   [(* lint: unit <u> <reason> *)] marker. *)

open Parsetree

type unit_ = Unit of string | Unitless | Unknown

(* Known suffixes, lower-case. The suffix string itself is the unit
   name shown in messages. *)
let known_suffixes =
  [
    "cycles"; "ns"; "us"; "ms"; "bytes"; "kb"; "mb"; "gb"; "pages";
    "gbps"; "mbps"; "pct"; "hz"; "khz"; "mhz"; "ghz";
  ]

let is_known u = List.mem u known_suffixes

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i j = j = nn || (hay.[i + j] = needle.[j] && at i (j + 1)) in
  let rec go i = i + nn <= nh && (at i 0 || go (i + 1)) in
  nn = 0 || go 0

(* Unit of a bare name: last '_'-separated token, rates excluded. *)
let name_unit name =
  if contains_sub name "_per_" || contains_sub name "per_" then None
  else
    match List.rev (String.split_on_char '_' name) with
    | last :: _ when is_known last -> Some last
    | _ -> None

(* Result unit and expected-argument unit of an applied function name.
   [arg] is checked against the last unlabelled argument when known. *)
type fn_units = { result : unit_; arg : string option }

let no_units = { result = Unknown; arg = None }

(* Module-qualified converters whose names alone would mislead:
   Cycles.of_us returns cycles (taking us), Cycles.to_int is still a
   cycle count, arithmetic on Cycles.t stays cycles. *)
let qualified_fn_units = function
  | [ "Cycles"; "of_us" ] -> { result = Unit "cycles"; arg = Some "us" }
  | [ "Cycles"; ("of_int" | "to_int" | "add" | "sub" | "scale" | "sum"
                | "min" | "max") ] ->
      { result = Unit "cycles"; arg = None }
  | [ "Cycles"; "to_us" ] -> { result = Unit "us"; arg = None }
  | _ -> no_units

let split_on_infix name infix =
  (* "cycles_of_us" -> Some ("cycles", "us") for infix "_of_" *)
  let nl = String.length name and il = String.length infix in
  let rec find i =
    if i + il > nl then None
    else if String.sub name i il = infix then
      Some (String.sub name 0 i, String.sub name (i + il) (nl - i - il))
    else find (i + 1)
  in
  find 0

let last_token name =
  match List.rev (String.split_on_char '_' name) with
  | last :: _ -> last
  | [] -> name

let unqualified_fn_units name =
  match split_on_infix name "_of_" with
  | Some (res, src) ->
      let result =
        match name_unit res with
        | Some u -> Unit u
        | None -> (
            match last_token res with
            | t when is_known t -> Unit t
            | _ -> Unknown)
      in
      let arg = if is_known src then Some src else None in
      { result; arg }
  | None ->
      if String.length name > 3 && String.sub name 0 3 = "to_" then
        let u = String.sub name 3 (String.length name - 3) in
        if is_known u then { result = Unit u; arg = None } else no_units
      else if String.length name > 3 && String.sub name 0 3 = "of_" then
        let u = String.sub name 3 (String.length name - 3) in
        if is_known u then { result = Unknown; arg = Some u } else no_units
      else if
        String.length name > 3
        && String.sub name (String.length name - 3) 3 = "_of"
      then
        match name_unit (String.sub name 0 (String.length name - 3)) with
        | Some u -> { result = Unit u; arg = None }
        | None -> no_units
      else
        match name_unit name with
        | Some u -> { result = Unit u; arg = None }
        | None -> no_units

let fn_units lid =
  let segs = Pass.flatten lid in
  match qualified_fn_units segs with
  | { result = Unknown; arg = None } -> (
      match List.rev segs with
      | name :: _ -> unqualified_fn_units name
      | [] -> no_units)
  | q -> q

let additive_ops = [ "+"; "-"; "+."; "-." ]
let comparison_ops = [ "<"; "<="; ">"; ">="; "="; "<>" ]

(* Literals exempt from U2: 0 is unit-polymorphic (0 us = 0 of any
   unit), 1 covers the pervasive ceiling-division / off-by-one idiom. *)
let exempt_literal = function
  | Pconst_integer (s, _) -> (
      match int_of_string_opt s with Some (0 | 1 | -1) -> true | _ -> false)
  | Pconst_float (s, _) -> (
      match float_of_string_opt s with
      | Some f -> Float.equal f 0.0 || Float.equal (Float.abs f) 1.0
      | None -> false)
  | _ -> false

let rec strip e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) ->
      strip e
  | _ -> e

let is_constant e =
  match (strip e).pexp_desc with Pexp_constant _ -> true | _ -> false

let rec infer e =
  let e = strip e in
  match e.pexp_desc with
  | Pexp_constant _ -> Unitless
  | Pexp_ident { txt; _ } -> (
      match List.rev (Pass.flatten txt) with
      | name :: _ -> (
          match name_unit name with Some u -> Unit u | None -> Unknown)
      | [] -> Unknown)
  | Pexp_field (_, { txt; _ }) -> (
      match List.rev (Pass.flatten txt) with
      | name :: _ -> (
          match name_unit name with Some u -> Unit u | None -> Unknown)
      | [] -> Unknown)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident op; _ }; _ },
                [ (Nolabel, a); (Nolabel, b) ])
    when List.mem op additive_ops -> (
      (* Join: the unit survives addition with Unknown/Unitless. *)
      match (infer a, infer b) with
      | Unit u, Unit v when u = v -> Unit u
      | Unit _, Unit _ -> Unknown (* mismatch reported at the node check *)
      | Unit u, _ | _, Unit u -> Unit u
      | Unitless, Unitless -> Unitless
      | _ -> Unknown)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      (fn_units txt).result
  | _ -> Unknown

(* --- node checks ------------------------------------------------------ *)

let check_binary ctx op (loc : Location.t) a b =
  let ua = infer a and ub = infer b in
  match (ua, ub) with
  | Unit u, Unit v when u <> v ->
      Pass.emit ctx Rules.U1 loc
        (Printf.sprintf "incompatible units: %s %s %s" u op v)
  | Unit u, _ when is_constant b
                   && not (match (strip b).pexp_desc with
                           | Pexp_constant c -> exempt_literal c
                           | _ -> true) ->
      Pass.emit ctx Rules.U2 loc
        (Printf.sprintf
           "unit-less literal %s a value in %s: name it or convert it"
           (if List.mem op additive_ops then "added to/subtracted from"
            else "compared with")
           u)
  | _, Unit u when is_constant a
                   && not (match (strip a).pexp_desc with
                           | Pexp_constant c -> exempt_literal c
                           | _ -> true) ->
      Pass.emit ctx Rules.U2 loc
        (Printf.sprintf
           "unit-less literal %s a value in %s: name it or convert it"
           (if List.mem op additive_ops then "added to/subtracted from"
            else "compared with")
           u)
  | _ -> ()

let check_apply ctx e =
  match e.pexp_desc with
  | Pexp_apply (({ pexp_desc = Pexp_ident { txt = Lident op; loc }; _ }),
                [ (Nolabel, a); (Nolabel, b) ])
    when List.mem op additive_ops || List.mem op comparison_ops ->
      check_binary ctx op loc a b
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
      (* Labelled arguments whose label names a unit. *)
      List.iter
        (fun (lbl, arg) ->
          match lbl with
          | Asttypes.Labelled l | Asttypes.Optional l -> (
              match name_unit l with
              | Some u -> (
                  match infer arg with
                  | Unit v when v <> u ->
                      Pass.emit ctx Rules.U1 arg.pexp_loc
                        (Printf.sprintf
                           "argument ~%s: expected %s, got a value in %s" l u
                           v)
                  | _ -> ())
              | None -> ())
          | Asttypes.Nolabel -> ())
        args;
      (* Converter payloads: the last unlabelled argument must carry the
         converter's source unit (or nothing inferable). *)
      (match (fn_units txt).arg with
      | None -> ()
      | Some src -> (
          match
            List.rev
              (List.filter_map
                 (fun (lbl, a) ->
                   match lbl with Asttypes.Nolabel -> Some a | _ -> None)
                 args)
          with
          | payload :: _ -> (
              match infer payload with
              | Unit v when v <> src ->
                  Pass.emit ctx Rules.U1 payload.pexp_loc
                    (Printf.sprintf
                       "converter %s expects %s, got a value in %s"
                       (Pass.dotted (Pass.flatten txt))
                       src v)
              | _ -> ())
          | [] -> ()))
  | _ -> ()

let check_record ctx e =
  match e.pexp_desc with
  | Pexp_record (fields, _) ->
      List.iter
        (fun (({ txt; _ } : Longident.t Location.loc), value) ->
          match List.rev (Pass.flatten txt) with
          | name :: _ -> (
              match name_unit name with
              | Some u -> (
                  match infer value with
                  | Unit v when v <> u ->
                      Pass.emit ctx Rules.U1 value.pexp_loc
                        (Printf.sprintf
                           "field %s holds %s but receives a value in %s"
                           name u v)
                  | _ -> ())
              | None -> ())
          | [] -> ())
        fields
  | _ -> ()

let pattern_unit p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _)
    ->
      name_unit txt
  | _ -> None

let check_binding ctx vb =
  match pattern_unit vb.pvb_pat with
  | None -> ()
  | Some u -> (
      match infer vb.pvb_expr with
      | Unit v when v <> u ->
          Pass.emit ctx Rules.U1 vb.pvb_loc
            (Printf.sprintf "binding *_%s receives a value in %s" u v)
      | _ -> ())

let run ctx (ast : Pass.ast) =
  let expr sub e =
    check_apply ctx e;
    check_record ctx e;
    (match e.pexp_desc with
    | Pexp_let (_, bindings, _) -> List.iter (check_binding ctx) bindings
    | _ -> ());
    Ast_iterator.default_iterator.expr sub e
  in
  let structure_item sub item =
    (match item.pstr_desc with
    | Pstr_value (_, bindings) -> List.iter (check_binding ctx) bindings
    | _ -> ());
    Ast_iterator.default_iterator.structure_item sub item
  in
  let it = { Ast_iterator.default_iterator with expr; structure_item } in
  match ast with
  | Pass.Impl str -> it.structure it str
  | Pass.Intf sg -> it.signature it sg

let pass = { Pass.name = "units"; rules = Rules.[ U1; U2 ]; run }
