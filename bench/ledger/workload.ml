(* The ledger's workloads. Each is a list of armvirt invocations; one pass
   runs them one after another, and every output is checked against a
   digest. Why each workload exists is in README.md and BENCHMARK.json. *)

type invocation = {
  args : string list;
  seeded : bool;  (** Takes the run's seed, so its output depends on it. *)
}

type t = {
  name : string;
  golden : string;
      (** Golden file; workloads whose outputs must agree share one. *)
  width : int;  (** CPUs a pass keeps busy, and is confined to. *)
  invocations : ids:string list -> seed:int -> invocation list;
}

let fixed args = { args; seeded = false }

module Platform = Armvirt_core.Platform

(* KVM and Xen on ARM and x86, plus KVM on ARMv8.1 VHE: the CLI's -p and
   -H values, and the same platform for the in-process replicas. *)
let configs =
  [
    ("arm", "kvm", Platform.Arm_m400, Platform.Kvm);
    ("arm-vhe", "kvm", Platform.Arm_m400_vhe, Platform.Kvm);
    ("arm", "xen", Platform.Arm_m400, Platform.Xen);
    ("x86", "kvm", Platform.X86_r320, Platform.Kvm);
    ("x86", "xen", Platform.X86_r320, Platform.Xen);
  ]

(* "arm-vhe-kvm": a config's name in per-layer metric names. *)
let config_name (p, h, _, _) = p ^ "-" ^ h

let per_config f =
  List.concat_map
    (fun (p, h, _, _) -> List.map fixed (f [ "-p"; p; "-H"; h ]))
    configs

let regen name jobs =
  {
    name;
    golden = "regen";
    width = jobs;
    invocations =
      (fun ~ids ~seed:_ ->
        [ fixed (("run" :: ids) @ [ "--jobs"; string_of_int jobs ]) ]);
  }

let world_switch ~iterations ~transactions ~micro_flags ~rr_flags ~ids:_
    ~seed:_ =
  per_config (fun c ->
      [
        ("micro" :: c) @ [ "--iterations"; iterations ] @ micro_flags;
        ("rr" :: c) @ [ "--transactions"; transactions ] @ rr_flags;
      ])

let explore_space =
  "vgic.save=2000:4400:50,trap_to_el2=40:120:5,eret=20:80:5,lr_count=2|4|8,\
   vhost=true|false,hyp=kvm|xen"

(* Points the explore-lhs workload samples; explore.host_ms_per_point
   divides by it. *)
let explore_points = 600

let all =
  [
    regen "regen" 1;
    regen "regen-par" 2;
    {
      name = "world-switch";
      golden = "world-switch";
      width = 1;
      invocations =
        world_switch ~iterations:"1024" ~transactions:"20000" ~micro_flags:[]
          ~rr_flags:[];
    };
    {
      name = "world-switch-traced";
      golden = "world-switch-traced";
      width = 1;
      invocations =
        world_switch ~iterations:"128" ~transactions:"2500"
          ~micro_flags:[ "--stat"; "-" ] ~rr_flags:[ "--trace"; "-" ];
    };
    {
      name = "fleet-storm";
      golden = "fleet-storm";
      width = 1;
      invocations =
        (fun ~ids:_ ~seed:_ ->
          [
            fixed
              [
                "fleet"; "--scenario"; "boot-storm"; "--vms"; "512"; "--jobs";
                "1"; "--format"; "csv";
              ];
          ]);
    };
    {
      name = "migrate";
      golden = "migrate";
      width = 1;
      invocations =
        (fun ~ids:_ ~seed ->
          [
            {
              args =
                [
                  "migrate"; "--compare"; "--pages"; "32768"; "--seed";
                  string_of_int seed; "--jobs"; "1"; "--format"; "csv";
                ];
              seeded = true;
            };
          ]);
    };
    {
      name = "cluster";
      golden = "cluster";
      width = 1;
      invocations =
        (fun ~ids:_ ~seed:_ ->
          [
            fixed
              [
                "cluster"; "--scenario"; "loadgen"; "--jobs"; "1"; "--format";
                "csv";
              ];
            fixed
              [
                "cluster"; "--scenario"; "matrix"; "--vms"; "8"; "--jobs"; "1";
                "--format"; "csv";
              ];
          ]);
    };
    {
      name = "explore-lhs";
      golden = "explore-lhs";
      width = 1;
      invocations =
        (fun ~ids:_ ~seed ->
          [
            {
              args =
                [
                  "explore"; "--space"; explore_space; "--sampler";
                  Printf.sprintf "lhs:%d" explore_points; "--seed";
                  string_of_int seed; "--objective"; "table2-err";
                  "--objective"; "rr-us"; "--jobs"; "1"; "--format"; "csv";
                ];
              seeded = true;
            };
          ]);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Experiment ids as `armvirt list` prints them: the indented lines under
   the "Experiments" heading, up to the first blank line. *)
let experiment_ids list_output =
  let rec skip = function
    | [] -> []
    | line :: rest ->
        if String.starts_with ~prefix:"Experiments" line then take rest
        else skip rest
  and take = function
    | line :: rest when String.starts_with ~prefix:"  " line -> (
        match String.split_on_char ' ' (String.trim line) with
        | id :: _ -> id :: take rest
        | [] -> take rest)
    | _ -> []
  in
  skip (String.split_on_char '\n' list_output)

(* What each invocation's output must digest to: its golden line, unless
   it takes the seed and the run's seed is not the golden's; then the
   output of the run's first pass ([reference]). *)
let expected ~golden ~seed invocations reference =
  List.mapi
    (fun i (inv, (o : Proc.outcome)) ->
      if inv.seeded && seed <> Golden.seed then o.Proc.digest
      else Option.value (List.nth_opt golden i) ~default:"missing")
    (List.combine invocations reference)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type pass = {
  wall_s : float;
  cpu_s : float;
  peak_rss_kb : int;
  outcomes : Proc.outcome list;
}

(* A pass's wall time is the sum of its invocations' spawn-to-reap
   times: reading their outputs back is the harness's work, not theirs. *)
let pass_of (outcomes : Proc.outcome list) =
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0. outcomes in
  {
    wall_s = sum (fun o -> o.Proc.wall_s);
    cpu_s = sum (fun o -> o.Proc.cpu_s);
    peak_rss_kb =
      List.fold_left (fun acc o -> max acc o.Proc.maxrss_kb) 0 outcomes;
    outcomes;
  }

let run_pass ~armvirt invocations =
  pass_of (List.map (fun inv -> Proc.run armvirt inv.args) invocations)

(* Invocations that exited non-zero, timed out, or printed other bytes. *)
let failures ~expected pass =
  List.fold_left2
    (fun n digest (o : Proc.outcome) ->
      if Proc.ok o && o.Proc.digest = digest then n else n + 1)
    0 expected pass.outcomes
