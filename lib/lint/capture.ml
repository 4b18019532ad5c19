(* D1: cross-domain capture.

   R4 confines [Domain.spawn] to the runner, but that still leaves a
   hole: a closure handed to [Runner.map] may capture a mutable
   toplevel binding from its own module and mutate it from worker
   domains — a data race that R6's audited-global allowlist makes
   invisible (an [(* lint: allow R6 *)] hook slot is fine as a
   process-wide registration point, and still wrong to touch from a
   fanned-out cell).

   The check is per-file and syntactic: collect the names of toplevel
   [ref]/[Hashtbl.create]/[Atomic.make] bindings (whether or not an R6
   marker allows them), then flag any bare identifier inside an
   argument of a [Runner.map] application that resolves to one of
   them. Cross-module captures cannot be seen without a typing
   environment; the designated registries are exempt by scoping
   ({!Rules.applies}), because Runner itself merges their contents
   deterministically (domain-local tracers, input-order merge). *)

open Parsetree

let toplevel_mutables str =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
          List.filter_map
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } when Pass.is_mutable_alloc vb.pvb_expr ->
                  Some txt
              | _ -> None)
            bindings
      | _ -> [])
    str

let is_runner_map lid =
  match List.rev (Pass.flatten lid) with
  | "map" :: "Runner" :: _ -> true
  | _ -> false

let check_argument ctx mutables (arg : expression) =
  let expr sub e =
    (match e.pexp_desc with
    | Pexp_ident { txt = Lident name; loc } when List.mem name mutables ->
        Pass.emit ctx Rules.D1 loc
          (Printf.sprintf
             "closure reaching Runner.map captures mutable toplevel %S: \
              worker domains would race on it and memoized replays would \
              diverge"
             name)
    | _ -> ());
    Ast_iterator.default_iterator.expr sub e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it arg

let run ctx (ast : Pass.ast) =
  match ast with
  | Pass.Intf _ -> ()
  | Pass.Impl str ->
      let mutables = toplevel_mutables str in
      if mutables <> [] then begin
        let expr sub e =
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
            when is_runner_map txt ->
              List.iter (fun (_, a) -> check_argument ctx mutables a) args
          | _ -> ());
          Ast_iterator.default_iterator.expr sub e
        in
        let it = { Ast_iterator.default_iterator with expr } in
        it.structure it str
      end

let pass = { Pass.name = "capture"; rules = [ Rules.D1 ]; run }
