type mode = Root | Non_root

exception Invalid_transition of string

type t = { mutable mode : mode; mutable vmcs : int option }

let fail fmt = Format.kasprintf (fun s -> raise (Invalid_transition s)) fmt

let create () = { mode = Root; vmcs = None }
let mode t = t.mode
let current_vmcs t = t.vmcs

let running_vm t =
  match (t.mode, t.vmcs) with Non_root, Some d -> Some d | _ -> None

let require_root t what =
  match t.mode with
  | Root -> ()
  | Non_root -> fail "%s in non-root mode (the guest owns the CPU)" what

let vmptrld t ~domid =
  require_root t "vmptrld";
  t.vmcs <- Some domid

let vmclear t =
  require_root t "vmclear";
  t.vmcs <- None

let vmentry t =
  require_root t "vmentry";
  (match t.vmcs with
  | Some _ -> ()
  | None -> fail "vmentry with no current VMCS");
  t.mode <- Non_root

let vmexit t =
  match t.mode with
  | Non_root -> t.mode <- Root
  | Root -> fail "vmexit from root mode"

let establish t ~mode ~vmcs =
  t.mode <- mode;
  t.vmcs <- vmcs
