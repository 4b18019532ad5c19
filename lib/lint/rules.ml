type id = R1 | R2 | R3 | R4 | R5 | R6 | R7 | U1 | U2 | D1 | S1

type severity = Error | Warning

let all = [ R1; R2; R3; R4; R5; R6; R7; U1; U2; D1; S1 ]

let to_string = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | U1 -> "U1"
  | U2 -> "U2"
  | D1 -> "D1"
  | S1 -> "S1"

let of_string s =
  match String.uppercase_ascii (String.trim s) with
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "U1" -> Some U1
  | "U2" -> Some U2
  | "D1" -> Some D1
  | "S1" -> Some S1
  | _ -> None

let severity = function
  | R1 | R2 | R3 | R4 | U1 | D1 | S1 -> Error
  | R5 | R6 | R7 | U2 -> Warning

let severity_to_string = function Error -> "error" | Warning -> "warning"

let summary = function
  | R1 -> "stdlib Random outside Engine.Rng"
  | R2 -> "wall-clock or process entropy in lib/"
  | R3 -> "Hashtbl iteration order may escape unsorted"
  | R4 -> "Domain spawn/join outside the deterministic runner"
  | R5 -> "polymorphic compare on float-bearing or functional values"
  | R6 -> "mutable top-level state outside the designated registries"
  | R7 -> "direct stdout printing in lib/"
  | U1 -> "arithmetic/comparison/binding between incompatible units of measure"
  | U2 -> "unit-less literal combined with a unit-carrying value"
  | D1 -> "closure reaching Runner.map captures mutable toplevel state"
  | S1 -> "exported value that no other unit calls"

let hint = function
  | R1 -> "draw through a seeded Engine.Rng stream (Rng.split per consumer)"
  | R2 ->
      "simulated time comes from Engine.Cycles/Sim.now; host wall-clock \
       belongs in bench/ only"
  | R3 ->
      "pipe the fold into List.sort with an explicit comparator, or mark an \
       audited order-insensitive site with (* lint: sorted *)"
  | R4 -> "route parallelism through Runner.map's deterministic input-order merge"
  | R5 -> "use Float.compare/Float.equal or a named per-type comparator"
  | R6 ->
      "thread state through a record, or register it in lib/obs/metrics.ml; \
       audited globals take (* lint: allow R6 <reason> *)"
  | R7 -> "emit through Report/Export/Format.fprintf on a caller-supplied formatter"
  | U1 ->
      "convert through a named converter (Cycles.of_us, cycles_per_byte_of_gbps, \
       ...) so the dimension change is visible at the site"
  | U2 ->
      "name the constant with a unit suffix, or audit the site with \
       (* lint: unit <u> *)"
  | D1 ->
      "pass state into the cell function and return it; cells must be pure \
       functions of their input for memoization and --jobs invariance"
  | S1 ->
      "delete the value, or drop it from the .mli when only its own module \
       calls it; an audited export takes (* lint: allow S1 <reason> *)"

let explain = function
  | R1 ->
      "R1 forbids stdlib Random everywhere except lib/engine/rng.ml. The \
       engine owns the single seeded stream (Engine.Rng); a stray \
       Random.float draws from the global generator, whose state depends on \
       whatever ran before, so results would vary across runs and cell \
       orderings. Suppress an audited site with (* lint: allow R1 <reason> *)."
  | R2 ->
      "R2 forbids wall-clock and process-entropy calls (Unix.gettimeofday, \
       Unix.time, Sys.time, Random.self_init) in lib/. Simulated time is the \
       engine clock; host time in a result path couples output to host \
       speed. Host-side telemetry that never enters a byte-compared export \
       may carry (* lint: allow R2 <reason> *)."
  | R3 ->
      "R3 flags Hashtbl.iter/fold whose enclosing definition does not also \
       sort: OCaml hash order depends on insertion history, so unsorted \
       traversals leak nondeterminism into exports. Audited commutative \
       folds take (* lint: sorted <why> *)."
  | R4 ->
      "R4 pins Domain.spawn/join to lib/core/runner.ml. The jobs-invariance \
       proof (input-order merge, domain-local tracers) is an argument about \
       one fork/join site; a second spawn site anywhere else voids it."
  | R5 ->
      "R5 forbids polymorphic compare/(=) on float-bearing or functional \
       values in lib/engine and lib/stats: Stdlib.compare disagrees with \
       IEEE on NaN and raises on closures. Use Float.compare/Int.compare or \
       a named per-type comparator."
  | R6 ->
      "R6 forbids mutable toplevel state (ref, Hashtbl.create) outside the \
       designated registries (lib/obs/metrics.ml, lib/core/observe.ml): \
       cells must be pure functions of their plan, which is what memoization \
       and parallel execution assume. Audited single-slot hooks take \
       (* lint: allow R6 <reason> *)."
  | R7 ->
      "R7 forbids printing to stdout from lib/: libraries return data, \
       drivers print. Interleaved prints from parallel cells are \
       nondeterministic and corrupt piped output."
  | U1 ->
      "U1 infers units of measure from identifier and record-field suffixes \
       (_cycles, _ns, _us, _ms, _bytes, _kb, _mb, _gbps, _pct, _hz, _ghz, \
       _pages, ...) and from the named converters (Cycles.of_us, \
       Cycles.to_us, <u>_of_<v> functions), then flags +, -, comparisons, \
       let-bindings, record fields and labelled arguments that mix two \
       different units, e.g. link_gbps + cost_cycles or ~bytes:len_kb. The \
       fix is a named converter at the site; a deliberate reinterpretation \
       takes (* lint: unit <u> <reason> *). Rates (*_per_*) and products/\
       quotients are not tracked: only additive composition is dimensionful."
  | U2 ->
      "U2 flags a unit-less nonzero literal combined arithmetically (or \
       compared) with a unit-carrying value, e.g. warmup_us +. 100.0: the \
       magic number silently asserts a unit. 0 and 1 are exempt (zero is \
       unit-polymorphic; +/- 1 is the counting idiom). Literals bound \
       directly at a unit-suffixed declaration (let timeout_us = 300.0, \
       { downtime_us = 300.0; ... }) are the sanctioned entry points and do \
       not flag. Audit with (* lint: unit <u> <reason> *)."
  | D1 ->
      "D1 closes the escape hole R4 leaves open: R4 confines Domain.spawn \
       to Runner, but a closure passed to Runner.map may still capture \
       mutable toplevel state defined in the same module and mutate it from \
       worker domains — racy, and invisible to R6's audited-global \
       allowlist. Any identifier inside an argument of Runner.map that \
       resolves to a toplevel ref/Hashtbl/Atomic of the same file is \
       flagged; the designated registries (which Runner merges \
       deterministically) are exempt."
  | S1 ->
      "S1 reads the whole tree: every val of a lib/**/*.mli, nested module \
       signatures included, needs a caller in an .ml under lib/, bin/, \
       bench/, examples/ or test/ other than its own implementation. A \
       reference counts when it is ...M.v written through the module name \
       M that declares v, X.v where the file binds module X = ...M, or a \
       bare v in a file that opens M (open, let open, M.( ... ), include). \
       Without types the match is by name, so an ambiguous reference \
       counts as a call. An export nobody calls is surface to read, test \
       and keep working for no program path; a value that tests call to \
       read state a program path creates has a caller and stays."

(* --- per-rule path scoping ------------------------------------------ *)
(* Relative paths use '/' separators and are rooted at the repo root. *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* R1: the one module allowed to touch stdlib Random (it seeds splitmix64
   from an explicit integer; everything else must go through Engine.Rng). *)
let rng_module = "lib/engine/rng.ml"

(* R4: the one module allowed to spawn/join domains. *)
let runner_module = "lib/core/runner.ml"

(* R6: designated mutable registries. Metrics is the metric/label registry;
   Observe is the process-wide tracing session (its globals are documented
   and mutex-protected). D1 exempts the same set: Runner itself merges
   their contents deterministically. *)
let registry_modules = [ "lib/obs/metrics.ml"; "lib/core/observe.ml" ]

let applies ~relpath id =
  match id with
  | R1 -> relpath <> rng_module
  | R2 -> starts_with "lib/" relpath
  | R3 -> starts_with "lib/" relpath || starts_with "bench/" relpath
  | R4 -> relpath <> runner_module
  | R5 ->
      starts_with "lib/engine/" relpath || starts_with "lib/stats/" relpath
  | R6 ->
      starts_with "lib/" relpath && not (List.mem relpath registry_modules)
  | U1 | U2 -> starts_with "lib/" relpath
  | D1 ->
      starts_with "lib/" relpath
      && relpath <> runner_module
      && not (List.mem relpath registry_modules)
  | R7 -> starts_with "lib/" relpath
  | S1 -> starts_with "lib/" relpath && Filename.check_suffix relpath ".mli"
