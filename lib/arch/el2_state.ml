type mode = Split_mode | El2_resident | Vhe
type context = Host | Vm of int

exception Invalid_transition of string

type executing = In_el2 | In_vm of int | In_host

type t = {
  mode : mode;
  mutable el1 : context;
  mutable stage2 : bool;
  mutable traps : bool;
  mutable executing : executing;
}

let fail fmt = Format.kasprintf (fun s -> raise (Invalid_transition s)) fmt

let create mode =
  match mode with
  | Split_mode ->
      { mode; el1 = Host; stage2 = false; traps = false; executing = In_host }
  | El2_resident ->
      { mode; el1 = Vm (-1); stage2 = true; traps = true; executing = In_el2 }
  | Vhe ->
      (* The host runs in EL2; EL1 is parked until a VM loads. *)
      { mode; el1 = Vm (-1); stage2 = true; traps = true; executing = In_host }

let mode t = t.mode
let el1_owner t = t.el1
let stage2_enabled t = t.stage2
let traps_enabled t = t.traps

let running_vm t =
  match t.executing with In_vm d -> Some d | In_el2 | In_host -> None

let require_el2 t what =
  match t.executing with
  | In_el2 -> ()
  | In_vm d -> fail "%s while VM %d executes (trap to EL2 first)" what d
  | In_host -> (
      match t.mode with
      | Vhe -> () (* the VHE host *is* EL2 software *)
      | Split_mode | El2_resident ->
          fail "%s while the host executes (trap to EL2 first)" what)

let enter_vm t ~domid =
  require_el2 t "enter_vm";
  (match t.el1 with
  | Vm d when d = domid -> ()
  | Vm d -> fail "enter_vm %d: EL1 holds VM %d's state" domid d
  | Host -> fail "enter_vm %d: EL1 holds the host's state" domid);
  if not (t.stage2 && t.traps) then
    fail "enter_vm %d: virtualization features disarmed (a VM would own \
          the machine)" domid;
  t.executing <- In_vm domid

let exit_to_el2 t = t.executing <- In_el2

let load_el1 t ctx =
  require_el2 t "load_el1";
  (match (ctx, t.mode) with
  | Host, (El2_resident | Vhe) ->
      fail "load_el1 Host: this host does not live in EL1"
  | _ -> ());
  t.el1 <- ctx

let enable_virtualization t =
  (match t.mode with
  | Split_mode -> ()
  | El2_resident | Vhe -> fail "enable_virtualization: never disarmed");
  require_el2 t "enable_virtualization";
  t.stage2 <- true;
  t.traps <- true

let disable_virtualization t =
  (match t.mode with
  | Split_mode -> ()
  | El2_resident | Vhe ->
      fail "disable_virtualization: a %s hypervisor never disarms"
        (match t.mode with El2_resident -> "Type 1" | _ -> "VHE"));
  require_el2 t "disable_virtualization";
  (match t.el1 with
  | Host -> ()
  | Vm d -> fail "disable_virtualization: VM %d's EL1 state is live" d);
  t.stage2 <- false;
  t.traps <- false

let run_host t =
  match t.mode with
  | Split_mode ->
      require_el2 t "run_host";
      (match t.el1 with
      | Host -> ()
      | Vm d -> fail "run_host: EL1 holds VM %d's state" d);
      if t.stage2 || t.traps then
        fail "run_host: virtualization features still armed";
      t.executing <- In_host
  | Vhe | El2_resident ->
      require_el2 t "run_host";
      t.executing <- In_host

let establish t ~el1 ~executing =
  t.el1 <- el1;
  (match t.mode with
  | Split_mode ->
      (* Split-mode arms the features exactly when a VM's state is in. *)
      let armed = match el1 with Vm _ -> true | Host -> false in
      t.stage2 <- armed;
      t.traps <- armed
  | El2_resident | Vhe -> ());
  t.executing <-
    (match executing with
    | `El2 -> In_el2
    | `Host -> In_host
    | `Vm d -> In_vm d)
