(* armvirt-lint: the linter's one entry point (lib/lint).

   Statically checks the determinism, unit and capture invariants and
   that every export has a caller. It is its own executable because
   lib/lint parses OCaml through compiler-libs.common, whose units all
   link whole: in bin/armvirt.exe they tripled the binary and more than
   doubled the start-up of every simulation command. `dune build @lint`
   runs it with --root .

   Exits 0 when clean, 1 on any finding, 2 on a rejected argument and
   124 (cmdliner's) on a usage error. *)

open Cmdliner

let () =
  let info =
    Cmd.info "armvirt-lint" ~version:"1.0.0" ~doc:Armvirt_lint.Cli.doc
      ~man:Armvirt_lint.Cli.man
  in
  exit (Cmd.eval' (Cmd.v info Armvirt_lint.Cli.term))
