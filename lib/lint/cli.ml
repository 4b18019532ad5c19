open Cmdliner

let format_arg =
  let fmt_conv =
    Arg.enum
      [ ("text", Report.Text); ("csv", Report.Csv); ("json", Report.Json) ]
  in
  Arg.(
    value & opt fmt_conv Report.Text
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"Output format: $(b,text), $(b,csv) or $(b,json).")

let root_arg =
  Arg.(
    value & opt (some string) None
    & info [ "root" ] ~docv:"DIR"
        ~doc:
          "Repo root to lint. Default: walk up from the current directory \
           (escaping dune's _build) to the nearest dune-project.")

let rules_arg =
  Arg.(
    value & opt_all string []
    & info [ "rules" ] ~docv:"IDS"
        ~doc:"Only run these rules (comma-separable, repeatable), e.g. R1,U1.")

let skip_rules_arg =
  Arg.(
    value & opt_all string []
    & info [ "skip-rules" ] ~docv:"IDS"
        ~doc:"Run all rules except these (comma-separable, repeatable).")

let out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Write the report to $(docv); $(b,-) (default) is stdout.")

let explain_arg =
  Arg.(
    value & opt (some string) None
    & info [ "explain" ] ~docv:"RULE"
        ~doc:"Print the long-form rationale for a rule id and exit.")

let run format only skip root out explain =
  match explain with
  | Some rule -> Driver.explain rule
  | None -> Driver.run ~format ~only ~skip ?root ?out ()

let term =
  Term.(
    const run $ format_arg $ rules_arg $ skip_rules_arg $ root_arg $ out_arg
    $ explain_arg)

let doc =
  "statically check the simulator's determinism, unit and capture \
   invariants, and that every export has a caller"

let man =
  [
    `S Manpage.s_description;
    `P
      "Parses every .ml/.mli under lib/, bin/ and bench/ with compiler-libs \
       and runs four analysis passes: $(b,determinism) — seeded randomness \
       only (R1), no wall-clock in lib/ (R2), no unsorted Hashtbl iteration \
       escaping to reports (R3), parallelism only behind Runner.map (R4), \
       explicit comparators in engine/stats (R5), mutable top-level state \
       only in the designated registries (R6), no direct stdout printing in \
       lib/ (R7); $(b,units) — no arithmetic or comparison across \
       incompatible inferred units of measure (U1) and no unit-less \
       literals entering unit-typed positions outside named converters \
       (U2); $(b,capture) — closures crossing Runner.map must not capture \
       mutable toplevel state outside the R6 registries (D1); \
       $(b,exports) — every val of a lib/ interface needs a caller in \
       another unit under lib/, bin/, bench/, examples/ or test/ (S1). \
       Use $(b,--explain RULE) for the full rationale of any rule.";
    `P
      "Exits 0 when clean, 1 on any finding, 2 on usage errors. The \
       report is a function of the tree: two runs over the same files \
       print the same bytes in every format. A finding is accepted only \
       by a marker in its source file: at the site with (* lint: sorted \
       *), (* lint: unit us reason *) or (* lint: allow R6 reason *), or \
       file-wide with (* lint: disable R2 *).";
  ]
