module Vgic = Armvirt_gic.Vgic
module Stage2 = Armvirt_mem.Stage2
module Grant_table = Armvirt_mem.Grant_table

type vcpu = { vm_domid : int; index : int; pcpu : int; vgic : Vgic.t }

type t = {
  domid : int;
  vm_name : string;
  vcpus : vcpu array;
  stage2 : Stage2.t;
  grants : Grant_table.t;
}

let create ~domid ~name ~pcpus =
  if pcpus = [] then invalid_arg "Vm.create: no PCPUs";
  let sorted = List.sort_uniq Int.compare pcpus in
  if List.length sorted <> List.length pcpus then
    invalid_arg "Vm.create: duplicate PCPU in pin set";
  let make_vcpu index pcpu =
    { vm_domid = domid; index; pcpu; vgic = Vgic.create () }
  in
  {
    domid;
    vm_name = name;
    vcpus = Array.of_list (List.mapi make_vcpu pcpus);
    stage2 = Stage2.create ();
    grants = Grant_table.create ();
  }

let vcpu t i =
  if i < 0 || i >= Array.length t.vcpus then
    invalid_arg (Printf.sprintf "Vm.vcpu: index %d out of range" i);
  t.vcpus.(i)

let num_vcpus t = Array.length t.vcpus

let map_memory t ~pages ~base_pa_page =
  if pages < 0 then invalid_arg "Vm.map_memory: negative page count";
  for i = 0 to pages - 1 do
    Stage2.map t.stage2 ~ipa_page:i ~pa_page:(base_pa_page + i)
      Stage2.Read_write
  done
