(* S1: every export has a caller.

   The one whole-tree pass. The exports are the [val]s of every
   lib/**/*.mli, vals of nested module signatures included; a caller
   is a reference in any .ml under lib/, bin/, bench/, examples/ or
   test/ other than the exporting unit's own implementation.

   Without a typing environment the check is syntactic, and where a
   reference is ambiguous it counts as a call. A reference to the val
   [v] of module [M] (the innermost module that declares it) is one of:
   - [...M.v], written through the module name, whatever precedes it;
   - [...X.v] in a file that binds [module X = ...M] or
     [let module X = ...M in];
   - a bare [v] in a file that opens [M] anywhere ([open M],
     [let open M in], [M.( ... )] or [include M]);
   - [P.v] in a file that applies a functor to [M], for every functor
     parameter [P] of that file.
   Two modules with the same name share their callers. *)

open Parsetree

let name = "exports"

type export = {
  mli : string;  (* repo-relative path of the declaring .mli *)
  path : string list;  (* enclosing modules, innermost first *)
  value : string;
  loc : Location.t;
}

let unit_name relpath =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename relpath))

let rec sig_exports ~mli path acc sg =
  List.fold_left
    (fun acc item ->
      match item.psig_desc with
      | Psig_value vd ->
          { mli; path; value = vd.pval_name.txt; loc = vd.pval_loc } :: acc
      | Psig_module
          {
            pmd_name = { txt = Some m; _ };
            pmd_type = { pmty_desc = Pmty_signature sg; _ };
            _;
          } ->
          sig_exports ~mli (m :: path) acc sg
      | _ -> acc)
    acc sg

(* The (module, value) pairs one implementation references. *)
let references str =
  let aliases = ref [] and opens = ref [] and idents = ref [] in
  let params = ref [] and args = ref [] in
  let last lid = match List.rev (Pass.flatten lid) with m :: _ -> m | [] -> "" in
  let module_ident (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ }
    | Pmod_constraint ({ pmod_desc = Pmod_ident { txt; _ }; _ }, _) ->
        Some (last txt)
    | _ -> None
  in
  let alias name me =
    match (name, module_ident me) with
    | Some x, Some m -> aliases := (x, m) :: !aliases
    | _ -> ()
  in
  let opened me = Option.iter (fun m -> opens := m :: !opens) (module_ident me) in
  let expr sub e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> idents := Pass.flatten txt :: !idents
    | Pexp_open ({ popen_expr; _ }, _) -> opened popen_expr
    | Pexp_letmodule ({ txt; _ }, me, _) -> alias txt me
    | _ -> ());
    Ast_iterator.default_iterator.expr sub e
  in
  let structure_item sub item =
    (match item.pstr_desc with
    | Pstr_open { popen_expr; _ } -> opened popen_expr
    | Pstr_include { pincl_mod; _ } -> opened pincl_mod
    | Pstr_module { pmb_name = { txt; _ }; pmb_expr; _ } -> alias txt pmb_expr
    | _ -> ());
    Ast_iterator.default_iterator.structure_item sub item
  in
  let module_expr sub me =
    (match me.pmod_desc with
    | Pmod_functor (Named ({ txt = Some p; _ }, _), _) -> params := p :: !params
    | Pmod_apply (_, arg) ->
        Option.iter (fun m -> args := m :: !args) (module_ident arg)
    | _ -> ());
    Ast_iterator.default_iterator.module_expr sub me
  in
  let it =
    { Ast_iterator.default_iterator with expr; structure_item; module_expr }
  in
  it.structure it str;
  let aliases =
    !aliases @ List.concat_map (fun p -> List.map (fun a -> (p, a)) !args) !params
  in
  (* An alias may name another alias (or, for a functor parameter, any
     module the file applies a functor to); every name counts. *)
  let rec resolve depth m =
    m
    :: (if depth = 0 then []
        else
          List.concat_map
            (fun (x, target) -> if x = m && target <> m then resolve (depth - 1) target else [])
            aliases)
  in
  let opens = List.concat_map (resolve 8) !opens in
  let refs = Hashtbl.create 256 in
  List.iter
    (fun segs ->
      match List.rev segs with
      | [ v ] -> List.iter (fun m -> Hashtbl.replace refs (m, v) ()) opens
      | v :: m :: _ ->
          List.iter (fun m -> Hashtbl.replace refs (m, v) ()) (resolve 8 m)
      | [] -> ())
    !idents;
  refs

(* [units] are (repo-relative path, parsed tree) pairs; each .mli
   under lib/ declares exports and every .ml is a potential caller. *)
let run units =
  let exports, callers =
    List.fold_left
      (fun (exports, callers) (relpath, ast) ->
        match ast with
        | Pass.Impl str -> (exports, (relpath, references str) :: callers)
        | Pass.Intf sg when Rules.applies ~relpath Rules.S1 ->
            (sig_exports ~mli:relpath [ unit_name relpath ] exports sg, callers)
        | Pass.Intf _ -> (exports, callers))
      ([], []) units
  in
  List.filter_map
    (fun e ->
      let own = Filename.remove_extension e.mli ^ ".ml" in
      let key = (List.hd e.path, e.value) in
      if
        List.exists
          (fun (relpath, refs) -> relpath <> own && Hashtbl.mem refs key)
          callers
      then None
      else
        Some
          {
            Pass.rule = Rules.S1;
            file = e.mli;
            line = e.loc.loc_start.pos_lnum;
            col = e.loc.loc_start.pos_cnum - e.loc.loc_start.pos_bol;
            message =
              Printf.sprintf
                "%s is exported but nothing outside %s calls it: delete \
                 it, or drop it from the interface"
                (String.concat "." (List.rev (e.value :: e.path)))
                (Filename.basename own);
          })
    exports
