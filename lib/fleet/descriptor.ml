type profile = {
  name : string;
  vcpus : int;
  mem_mb : int;
  weight : int;
  cap_pct : int;
  boot_cycles : int;
  work_cycles : int;
}

let default_weight = 256

(* A 1-VCPU microVM booting in ~16 ms of CPU work at the paper's
   2.4 GHz clock — the dense-consolidation baseline. *)
let synthetic =
  {
    name = "synthetic";
    vcpus = 1;
    mem_mb = 256;
    weight = default_weight;
    cap_pct = 0;
    boot_cycles = 38_400_000;
    work_cycles = 96_000_000;
  }

type t = {
  vms : int;
  mix : (profile * int) list;
  timeslice_ms : float;
  refill_quanta : int;
}

let max_vms = 65_536
let max_vcpus = 131_072

(* VCPUs of the whole fleet, in floats so that no share or VCPU count
   can overflow the sum. *)
let total_vcpus t =
  let cycle = List.fold_left (fun a (_, s) -> a +. float_of_int s) 0.0 t.mix in
  let per_cycle =
    List.fold_left
      (fun a (p, s) -> a +. (float_of_int s *. float_of_int p.vcpus))
      0.0 t.mix
  in
  let vms = float_of_int t.vms in
  let full = Float.of_int (truncate (vms /. cycle)) in
  let rest = ref (vms -. (full *. cycle)) in
  List.fold_left
    (fun a (p, s) ->
      let take = Float.min !rest (float_of_int s) in
      rest := !rest -. take;
      a +. (take *. float_of_int p.vcpus))
    (full *. per_cycle) t.mix

let validate t =
  if t.vms < 1 then invalid_arg "Fleet.Descriptor: vms < 1";
  if t.vms > max_vms then
    invalid_arg (Printf.sprintf "Fleet.Descriptor: vms > %d" max_vms);
  if t.timeslice_ms <= 0.0 then
    invalid_arg "Fleet.Descriptor: non-positive timeslice";
  if t.refill_quanta < 1 then
    invalid_arg "Fleet.Descriptor: refill_quanta < 1";
  if t.mix = [] then invalid_arg "Fleet.Descriptor: empty profile mix";
  List.iter
    (fun (p, share) ->
      if share < 1 then
        invalid_arg ("Fleet.Descriptor: non-positive share for " ^ p.name);
      if p.vcpus < 1 then
        invalid_arg ("Fleet.Descriptor: profile " ^ p.name ^ ": vcpus < 1");
      if p.weight < 1 then
        invalid_arg ("Fleet.Descriptor: profile " ^ p.name ^ ": weight < 1");
      let max_cap_pct = 100 in
      if p.cap_pct < 0 || p.cap_pct > max_cap_pct then
        invalid_arg
          ("Fleet.Descriptor: profile " ^ p.name ^ ": cap outside [0, 100]");
      if p.boot_cycles < 1 || p.work_cycles < 1 then
        invalid_arg
          ("Fleet.Descriptor: profile " ^ p.name ^ ": non-positive work"))
    t.mix;
  if total_vcpus t > float_of_int max_vcpus then
    invalid_arg
      (Printf.sprintf "Fleet.Descriptor: more than %d VCPUs in all" max_vcpus)

let v ?(timeslice_ms = 1.0) ?(refill_quanta = 10) ~vms mix =
  let t = { vms; mix; timeslice_ms; refill_quanta } in
  validate t;
  t

(* The mix expands to a repeating pattern in declaration order:
   [(a, 2); (b, 1)] assigns a, a, b, a, a, b, ... by VM index, so the
   composition is deterministic and independent of fleet size. *)
let pattern t =
  List.concat_map (fun (p, share) -> List.init share (fun _ -> p)) t.mix
  |> Array.of_list

let profile_of t =
  let pat = pattern t in
  fun i ->
    if i < 0 then invalid_arg "Fleet.Descriptor.profile_of: negative index";
    pat.(i mod Array.length pat)
