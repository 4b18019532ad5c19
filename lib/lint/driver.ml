(* File discovery and orchestration for a whole-repo lint run. Everything
   here is deterministic: directory listings are sorted, findings are
   sorted, and output is rendered by Report, so a report is a function
   of the tree. *)

(* Per-file passes lint lib/, bin/ and bench/; S1 also reads the
   callers in examples/ and test/. *)
let linted_dirs = [ "lib"; "bin"; "bench" ]

let scanned_dirs = linted_dirs @ [ "examples"; "test" ]

let is_source f =
  Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

let skip_dir name = String.length name > 0 && (name.[0] = '_' || name.[0] = '.')

(* Repo-relative paths always use '/', so reports and suppressions are
   host-independent. *)
let rec walk dir rel acc =
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      let rel' = if rel = "" then name else rel ^ "/" ^ name in
      if Sys.is_directory path then
        if skip_dir name then acc else walk path rel' acc
      else if is_source name then rel' :: acc
      else acc)
    acc entries

let scan_files ~root =
  List.fold_left
    (fun acc d ->
      let dir = Filename.concat root d in
      if Sys.file_exists dir && Sys.is_directory dir then walk dir d acc
      else acc)
    [] scanned_dirs
  |> List.sort String.compare

(* Locate the repo root from an arbitrary cwd. Inside dune's _build the
   mirrored tree also carries dune-project, so strip everything from the
   first _build component first, then walk up to the nearest dune-project. *)
let find_root () =
  let cwd = Sys.getcwd () in
  let parts = String.split_on_char '/' cwd in
  let rec take = function
    | [] -> []
    | "_build" :: _ -> []
    | p :: rest -> p :: take rest
  in
  let stripped = String.concat "/" (take parts) in
  let start = if stripped = "" then cwd else stripped in
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  match up start with Some d -> d | None -> start

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let sort_by_file findings =
  List.sort
    (fun (a : Engine.finding) b ->
      match String.compare a.Engine.file b.Engine.file with
      | 0 -> Engine.compare_finding a b
      | c -> c)
    findings

(* Each file is read and parsed once; the per-file passes see those
   under lib/, bin/ and bench/, S1 all of them. *)
let lint_tree ?(rules = Rules.all) ~root () =
  let files = scan_files ~root in
  let sources =
    List.filter_map
      (fun relpath ->
        match Engine.parse ~relpath (read_file (Filename.concat root relpath)) with
        | src -> Some (relpath, src)
        | exception Engine.Parse_error msg ->
            prerr_endline ("armvirt lint: skipping unparseable " ^ msg);
            None)
      files
  in
  let linted relpath =
    List.exists
      (fun d -> String.starts_with ~prefix:(d ^ "/") relpath)
      linted_dirs
  in
  let results =
    List.filter_map
      (fun (relpath, src) ->
        if linted relpath then Some (Engine.lint_file ~rules src) else None)
      sources
    @
    if List.mem Rules.S1 rules then
      [ Engine.lint_exports (List.map snd sources) ]
    else []
  in
  {
    Report.root;
    files_scanned = List.length files;
    suppressed =
      List.fold_left (fun acc r -> acc + r.Engine.suppressed) 0 results;
    findings =
      sort_by_file (List.concat_map (fun r -> r.Engine.findings) results);
  }

let parse_rule_args specs =
  List.concat_map (String.split_on_char ',') specs
  |> List.filter (fun s -> String.trim s <> "")
  |> List.map (fun s ->
         match Rules.of_string s with
         | Some r -> r
         | None -> invalid_arg (Printf.sprintf "unknown rule %S" s))

let select_rules ~only ~skip =
  let only = parse_rule_args only and skip = parse_rule_args skip in
  let base = if only = [] then Rules.all else only in
  List.filter (fun r -> not (List.mem r skip)) base

(* --- --explain --------------------------------------------------------- *)

let explain rule_spec =
  match Rules.of_string rule_spec with
  | None ->
      prerr_endline
        (Printf.sprintf
           "armvirt lint: unknown rule %S (known: %s)" rule_spec
           (String.concat " " (List.map Rules.to_string Rules.all)));
      2
  | Some rule ->
      output_string stdout
        (Printf.sprintf "%s — %s\nseverity: %s  pass: %s\n\n%s\n\nhint: %s\n"
           (Rules.to_string rule) (Rules.summary rule)
           (Rules.severity_to_string (Rules.severity rule))
           (Engine.pass_of_rule rule) (Rules.explain rule) (Rules.hint rule));
      flush stdout;
      0

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* Returns the process exit code: 0 clean, 1 any finding, 2 usage
   error. *)
let run ?(format = Report.Text) ?(only = []) ?(skip = []) ?root ?out () =
  match select_rules ~only ~skip with
  | exception Invalid_argument msg ->
      prerr_endline ("armvirt lint: " ^ msg);
      2
  | rules ->
      let root = match root with Some r -> r | None -> find_root () in
      let report = lint_tree ~rules ~root () in
      let rendered = Report.render format report in
      (match out with
      | None | Some "-" ->
          output_string stdout rendered;
          flush stdout
      | Some path -> write_file path rendered);
      if report.Report.findings = [] then 0 else 1
