(* The ledger: one end-to-end benchmark over the armvirt CLI.

   bash bench/ledger/run.sh --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it measures one workload: a warm-up pass, then timed
   passes for --seconds (at least [min_passes]); each metric is the median
   over the timed passes. With --trace 1 it runs the traced per-layer run
   (Layers) instead. The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. Without --workload it
   measures every workload in turn. *)

let end_to_end =
  [ ("wall_s", "s"); ("cpu_s", "s"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

let min_passes = 5

(* setup_s: the median of [setup_groups] x [setup_group] `armvirt list`
   runs, a speed probe before each group and after the last. *)
let setup_groups = 10
let setup_group = 5
let spans_path = Filename.concat Proc.work_dir "spans.json"

(* Runs per workload, each at its own seed, behind the spread that
   --record writes. *)
let spread_runs = 10

(* The probe's time on the host the committed numbers come from (a 2-vCPU
   Xeon VM). Times are reported as measured / probe * probe_reference_s:
   seconds at that host's speed, which stay put when a co-tenant slows
   the host. *)
let probe_reference_s = 0.075

type result = {
  metrics : (string * string * float) list;  (** Name, unit, value. *)
  raw : (string * float) list;  (** Times before scaling, by metric. *)
  attempted : int;
  failed : int;
}

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ledger: " ^ msg);
      exit 2)
    fmt

(* The speed probe, single-threaded, on each of the first [cpus] CPUs the
   process may use, one after another: their mean wall and CPU time. Each
   CPU a pass runs on is measured, but no two probes share a CPU, so a
   parallel speed-up, or its absence on a host with too few CPUs, stays in
   the scaled time. *)
let probe ~cpus =
  let runs =
    List.init cpus (fun first ->
        Proc.with_cpus ~first 1 (fun _ ->
            Proc.run Sys.executable_name [ "--probe" ]))
  in
  if not (List.for_all Proc.ok runs) then fail "the speed probe failed";
  let mean f =
    List.fold_left (fun acc o -> acc +. f o) 0. runs /. float_of_int cpus
  in
  (mean (fun o -> o.Proc.wall_s), mean (fun o -> o.Proc.cpu_s))

(* Runs [steps] in order with a probe after each, starting from the probe
   [before]. Each step's value comes with the mean wall and CPU time of
   the probes on either side of it; the last probe is returned too. *)
let probed ~cpus ~before steps =
  let rows, last =
    List.fold_left
      (fun (rows, (wall0, cpu0)) step ->
        let v = step () in
        let ((wall1, cpu1) as after) = probe ~cpus in
        ((v, (wall0 +. wall1) /. 2., (cpu0 +. cpu1) /. 2.) :: rows, after))
      ([], before) steps
  in
  (List.rev rows, last)

let scaled seconds ~probe_s = seconds /. probe_s *. probe_reference_s

let experiment_ids ~armvirt =
  let o = Proc.run ~capture:true armvirt [ "list" ] in
  match Workload.experiment_ids o.Proc.stdout with
  | _ :: _ as ids when Proc.ok o -> ids
  | _ -> fail "%s list printed no experiment ids" armvirt

(* Binary load, module initialisers and argument parsing, no simulation:
   the median time, scaled and as measured. *)
let setup_s ~armvirt =
  Proc.with_cpus 1 @@ fun cpus ->
  let groups, _ =
    probed ~cpus ~before:(probe ~cpus)
      (List.init setup_groups (fun _ () ->
           List.init setup_group (fun _ -> Proc.run armvirt [ "list" ])))
  in
  if not (List.for_all (fun (g, _, _) -> List.for_all Proc.ok g) groups) then
    fail "%s list failed" armvirt;
  let runs =
    List.concat_map
      (fun (g, probe_s, _) ->
        List.map (fun (o : Proc.outcome) -> (o.Proc.wall_s, probe_s)) g)
      groups
  in
  ( Workload.median (List.map (fun (s, probe_s) -> scaled s ~probe_s) runs),
    Workload.median (List.map fst runs) )

(* The numbers kept from one timed pass. *)
type pass_stats = {
  wall_s : float;  (** Sum over invocations, each scaled by its probes. *)
  cpu_s : float;
  raw_wall_s : float;
  raw_cpu_s : float;
  peak_rss_mb : float;
  failures : int;
}

(* Every child of a pass, probes included, runs on the same [width] CPUs:
   on a shared host each CPU can be slowed by a different co-tenant, and
   a probe only speaks for the CPUs it ran on. *)
let measure ~armvirt ~golden_dir ~seed ~seconds ~passes ~ids ~setup
    (w : Workload.t) =
  let width = w.Workload.width in
  Proc.with_cpus width @@ fun cpus ->
  if cpus < width then
    Printf.printf
      "%s: runs on %d CPU, fewer than the %d it keeps busy; its times do not \
       compare with a host that has %d\n"
      w.Workload.name cpus width width;
  let invs = w.Workload.invocations ~ids ~seed in
  let warmup = Workload.run_pass ~armvirt invs in
  let expected =
    Workload.expected
      ~golden:(Golden.load ~dir:golden_dir w.Workload.golden)
      ~seed invs warmup.Workload.outcomes
  in
  let start = Unix.gettimeofday () in
  let enough n =
    if passes > 0 then n >= passes
    else n >= min_passes && Unix.gettimeofday () -. start >= seconds
  in
  (* a probe between every two invocations: the host's speed can change
     within one pass *)
  let rec loop before n acc =
    if enough n then acc
    else
      let runs, after =
        probed ~cpus ~before
          (List.map (fun inv () -> Proc.run armvirt inv.Workload.args) invs)
      in
      let p = Workload.pass_of (List.map (fun (o, _, _) -> o) runs) in
      let sum f =
        List.fold_left
          (fun acc ((o : Proc.outcome), wall, cpu) -> acc +. f o ~wall ~cpu)
          0. runs
      in
      let stats =
        {
          wall_s = sum (fun o ~wall ~cpu:_ -> scaled o.Proc.wall_s ~probe_s:wall);
          cpu_s = sum (fun o ~wall:_ ~cpu -> scaled o.Proc.cpu_s ~probe_s:cpu);
          raw_wall_s = p.Workload.wall_s;
          raw_cpu_s = p.Workload.cpu_s;
          peak_rss_mb = float_of_int p.Workload.peak_rss_kb /. 1024.;
          failures = Workload.failures ~expected p;
        }
      in
      loop after (n + 1) (stats :: acc)
  in
  let timed = loop (probe ~cpus) 0 [] in
  let med f = Workload.median (List.map f timed) in
  let n = List.length timed in
  let setup_s, raw_setup_s = setup in
  let metrics =
    List.map
      (fun (name, unit_) ->
        ( name,
          unit_,
          match name with
          | "wall_s" -> med (fun p -> p.wall_s)
          | "cpu_s" -> med (fun p -> p.cpu_s)
          | "peak_rss_mb" -> med (fun p -> p.peak_rss_mb)
          | _ -> setup_s ))
      end_to_end
  in
  let raw =
    [
      ("wall_s", med (fun p -> p.raw_wall_s));
      ("cpu_s", med (fun p -> p.raw_cpu_s));
      ("setup_s", raw_setup_s);
    ]
  in
  Printf.printf "%s: %d timed passes after 1 warm-up, seed %d, %d CPU\n"
    w.Workload.name n seed cpus;
  List.iter
    (fun (name, unit_, v) ->
      Printf.printf "  %-12s %12.6f %-3s %s\n" name v unit_
        (if name = "setup_s" then
           Printf.sprintf "(median of %d armvirt list runs)"
             (setup_groups * setup_group)
         else Printf.sprintf "(median of %d passes)" n))
    metrics;
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-12s %12.6f s   (as measured, not scaled)\n"
        ("raw " ^ name) v)
    raw;
  let attempted = n * List.length invs in
  let failed = List.fold_left (fun acc p -> acc + p.failures) 0 timed in
  Printf.printf "  %-12s %d attempted, %d failed\n%!" "ops" attempted failed;
  { metrics; raw; attempted; failed }

let traced ~armvirt ~golden_dir ~seed ~ids =
  let r = Layers.run ~armvirt ~golden_dir ~seed ~ids in
  Printf.printf "traced run, seed %d: layer self time\n" seed;
  List.iter
    (fun (layer, s) -> Printf.printf "  %-12s %10.3f s\n" layer s)
    (Span.self_times ());
  List.iter
    (fun (name, unit_, v) -> Printf.printf "  %-40s %16.6g %s\n" name v unit_)
    r.Layers.metrics;
  Printf.printf "  obs.dropped %d\n" r.Layers.dropped;
  (try
     Span.write_chrome spans_path;
     Printf.printf "  spans: %s\n" spans_path
   with Sys_error msg -> Printf.printf "  spans not written: %s\n" msg);
  {
    metrics = r.Layers.metrics;
    raw = [];
    attempted = r.Layers.attempted;
    failed = r.Layers.failed;
  }

let result_json r extra =
  Json.obj
    ([
       ("correct", string_of_bool (r.failed = 0));
       ("attempted", string_of_int r.attempted);
       ("failed", string_of_int r.failed);
     ]
    @ extra)

let print_names ~ids =
  List.iter
    (fun (w : Workload.t) -> Printf.printf "workload %s\n" w.Workload.name)
    Workload.all;
  List.iter (fun (n, u) -> Printf.printf "end_to_end %s %s\n" n u) end_to_end;
  List.iter
    (fun (n, u) -> Printf.printf "per_layer %s %s\n" n u)
    (Layers.declared ~ids)

(* One pass of every workload at the golden seed; workloads sharing a
   golden must print the same bytes. *)
let write_golden ~armvirt ~ids dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let written = ref [] in
  List.iter
    (fun (w : Workload.t) ->
      let invs = w.Workload.invocations ~ids ~seed:Golden.seed in
      let p = Workload.run_pass ~armvirt invs in
      if not (List.for_all Proc.ok p.Workload.outcomes) then
        fail "%s: an invocation failed" w.Workload.name;
      let digests =
        List.map (fun (o : Proc.outcome) -> o.Proc.digest) p.Workload.outcomes
      in
      (match List.assoc_opt w.Workload.golden !written with
      | Some d when d <> digests ->
          fail "%s: output differs from the other workloads of golden %s"
            w.Workload.name w.Workload.golden
      | Some _ -> ()
      | None ->
          Golden.write ~dir w.Workload.golden
            (List.combine digests
               (List.map (fun i -> i.Workload.args) invs));
          written := (w.Workload.golden, digests) :: !written);
      Printf.printf "%s: %d digests\n%!" w.Workload.name (List.length digests))
    Workload.all

(* (Q3 - Q1) / median, the quartiles as Python's statistics.quantiles
   (data, n=4) gives them. *)
let quartile_spread xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let q i =
    let j = Int.max 1 (Int.min (n - 1) (i * (n + 1) / 4)) in
    let delta = (i * (n + 1)) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 3 -. q 1) /. Workload.median xs

(* For each workload and end-to-end metric, the quartile spread of its
   value over [runs]; for a time, both scaled and as measured. *)
let spread_json runs =
  let spread name get =
    Json.num (quartile_spread (List.map (fun run -> get (List.assoc name run)) runs))
  in
  let metric m r =
    let _, _, v = List.find (fun (m', _, _) -> m' = m) r.metrics in
    v
  in
  Json.obj
    (List.map
       (fun (name, first) ->
         ( name,
           Json.obj
             (List.map
                (fun (m, _, _) ->
                  let scaled = spread name (metric m) in
                  ( m,
                    if List.mem_assoc m first.raw then
                      Json.obj
                        [
                          ("scaled", scaled);
                          ("raw", spread name (fun r -> List.assoc m r.raw));
                        ]
                    else scaled ))
                first.metrics) ))
       (List.hd runs))

(* BENCH_ledger.json: two default runs and one traced run of one commit,
   how far the two runs' medians are apart, and the quartile spread over
   [spread_runs] runs at seeds 1, 2, ... *)
let record ~run_all ~traced path ~seed ~seconds =
  let first = run_all ~seed in
  let second = run_all ~seed in
  let t = traced () in
  let seeded = List.init spread_runs (fun i -> run_all ~seed:(i + 1)) in
  let by_workload runs =
    Json.obj (List.map (fun (name, r) -> (name, Json.metrics r.metrics)) runs)
  in
  let difference a b =
    Json.obj
      (List.map2
         (fun (m, _, x) (_, _, y) -> (m, Json.num (Float.abs (y -. x) /. x)))
         a.metrics b.metrics)
  in
  let attempted, failed =
    List.fold_left
      (fun (a, f) (_, r) -> (a + r.attempted, f + r.failed))
      (0, 0)
      (first @ second @ List.concat seeded)
  in
  let fields =
    [
      ("schema", Json.str "armvirt.bench-ledger/v1");
      ("nproc", string_of_int (Proc.with_cpus max_int Fun.id));
      ("ocaml", Json.str Sys.ocaml_version);
      ("seed", string_of_int seed);
      ("seconds", Json.num seconds);
      ( "ops",
        Json.obj
          [
            ("attempted", string_of_int attempted);
            ("failed", string_of_int failed);
          ] );
      ( "runs",
        "[\n    " ^ by_workload first ^ ",\n    " ^ by_workload second
        ^ "\n  ]" );
      ( "relative_difference",
        Json.obj
          (List.map2
             (fun (name, a) (_, b) -> (name, difference a b))
             first second) );
      ( "traced",
        Json.obj
          [
            ("attempted", string_of_int t.attempted);
            ("failed", string_of_int t.failed);
            ("metrics", Json.metrics t.metrics);
          ] );
      ("spread_runs", string_of_int spread_runs);
      ("spread", spread_json seeded);
    ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\n";
      output_string oc
        (String.concat ",\n"
           (List.map (fun (k, v) -> "  " ^ Json.str k ^ ": " ^ v) fields));
      output_string oc "\n}\n");
  Printf.printf "wrote %s\n" path;
  failed + t.failed

let () =
  let workload = ref "" and seed = ref Golden.seed and seconds = ref 10.
  and trace = ref 0 and passes = ref 0
  and armvirt = ref "_build/default/bin/armvirt.exe"
  and golden_dir = ref Golden.default_dir and names = ref false
  and golden_out = ref "" and record_out = ref "" and replica = ref ""
  and probe_only = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME One workload (default: all)");
      ("--seed", Arg.Set_int seed, "N Input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S Time in timed passes (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 1 runs the traced per-layer run");
      ("--traced", Arg.Unit (fun () -> trace := 1), " Same as --trace 1");
      ("--passes", Arg.Set_int passes, "N Exactly N timed passes");
      ("--armvirt", Arg.Set_string armvirt, "PATH The armvirt binary");
      ("--golden", Arg.Set_string golden_dir, "DIR Golden digests");
      ("--names", Arg.Set names, " Print workload and metric names");
      ("--write-golden", Arg.Set_string golden_out, "DIR Capture goldens");
      ("--record", Arg.Set_string record_out, "FILE Write BENCH_ledger.json");
      ("--replica", Arg.Set_string replica, "NAME Run one in-process replica");
      ("--probe", Arg.Set probe_only, " Run the host speed probe once");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";
  if !replica <> "" then Replica.run ~seed:!seed !replica
  else if !probe_only then Probe.run ()
  else begin
    if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
    if not (!seconds > 0.) then fail "--seconds must be positive";
    if !passes < 0 then fail "--passes must not be negative";
    let workloads =
      match !workload with
      | "" -> Workload.all
      | name -> (
          match Workload.find name with
          | Some w -> [ w ]
          | None -> fail "unknown workload %S" name)
    in
    let armvirt = !armvirt and golden_dir = !golden_dir and seed = !seed in
    if not (Sys.file_exists armvirt) then fail "no armvirt binary at %s" armvirt;
    let ids = experiment_ids ~armvirt in
    let run_all ~seed =
      let setup = setup_s ~armvirt in
      List.map
        (fun (w : Workload.t) ->
          ( w.Workload.name,
            measure ~armvirt ~golden_dir ~seed ~seconds:!seconds
              ~passes:!passes ~ids ~setup w ))
        workloads
    in
    let traced () = traced ~armvirt ~golden_dir ~seed ~ids in
    if !names then print_names ~ids
    else if !golden_out <> "" then write_golden ~armvirt ~ids !golden_out
    else if !record_out <> "" then begin
      if record ~run_all ~traced !record_out ~seed ~seconds:!seconds > 0 then
        exit 1
    end
    else
      let r, extra =
        if !trace = 1 then
          let r = traced () in
          (r, [ ("metrics", Json.metrics r.metrics) ])
        else
          match run_all ~seed with
          | [ (_, r) ] -> (r, [ ("metrics", Json.metrics r.metrics) ])
          | runs ->
              let sum f = List.fold_left (fun acc (_, r) -> acc + f r) 0 runs in
              ( {
                  metrics = [];
                  raw = [];
                  attempted = sum (fun r -> r.attempted);
                  failed = sum (fun r -> r.failed);
                },
                [
                  ( "workloads",
                    Json.obj
                      (List.map (fun (n, r) -> (n, Json.metrics r.metrics)) runs)
                  );
                ] )
      in
      print_endline (result_json r extra);
      if r.failed > 0 then exit 1
  end
