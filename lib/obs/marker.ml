(* Typed constructors for the counter-label grammar in accounting.mli.
   Builders and parser live in the same library so a builder-produced
   label is grammatical by construction; the M1 lint pass trusts
   applications of these functions and checks everything else.

   The exit-reason mnemonics mirror Armvirt_arch.Esr.short_name — obs
   sits below arch in the library graph (arch -> stats -> obs), so the
   enum is duplicated here and parity is enforced twice: by
   test_stat's marker/esr round-trip test and by the M1 pass, which
   links both libraries and cross-checks every literal reason against
   the live Esr list. *)

type reason = Wfx | Hvc | Smc | Sysreg | Iabt | Dabt | Irq

let all_reasons = [ Wfx; Hvc; Smc; Sysreg; Iabt; Dabt; Irq ]

let reason_to_string = function
  | Wfx -> "wfx"
  | Hvc -> "hvc"
  | Smc -> "smc"
  | Sysreg -> "sysreg"
  | Iabt -> "iabt"
  | Dabt -> "dabt"
  | Irq -> "irq"

let reason_of_string s =
  List.find_opt (fun r -> reason_to_string r = s) all_reasons

type dir = Rx | Tx | Drop

let dir_to_string = function Rx -> "rx" | Tx -> "tx" | Drop -> "drop"

let is_ident s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let require_ident ~what s =
  if not (is_ident s) then
    invalid_arg
      (Printf.sprintf "Marker: %s %S is not a lowercase identifier" what s)

(* Concatenated directly: the same bytes as the grammar's format
   strings, without a [Printf.sprintf] per label. *)
let exit_of ~hyp reason ~pcpu =
  String.concat "" [ hyp; ".exit/"; reason; "/p"; Int.to_string pcpu ]

let exit ~hyp ~reason ~pcpu =
  require_ident ~what:"hypervisor" hyp;
  exit_of ~hyp (reason_to_string reason) ~pcpu

let exit_name ~hyp ~reason ~pcpu =
  require_ident ~what:"hypervisor" hyp;
  (match reason_of_string reason with
  | Some _ -> ()
  | None ->
      invalid_arg
        (Printf.sprintf "Marker.exit_name: %S is not an exit mnemonic" reason));
  exit_of ~hyp reason ~pcpu

let entry ?domid ~hyp ~pcpu () =
  require_ident ~what:"hypervisor" hyp;
  match domid with
  | None -> String.concat "" [ hyp; ".entry/p"; Int.to_string pcpu ]
  | Some d ->
      String.concat ""
        [ hyp; ".entry/p"; Int.to_string pcpu; "/d"; Int.to_string d ]

let op ~hyp name =
  require_ident ~what:"hypervisor" hyp;
  if
    not
      (String.length name > 0
      && String.for_all
           (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
           name)
  then invalid_arg (Printf.sprintf "Marker.op: %S must match [a-z0-9_]+" name);
  hyp ^ "." ^ name

let port ~switch ~port dir =
  require_ident ~what:"switch" switch;
  String.concat ""
    [ "vswitch."; switch; "/p"; Int.to_string port; "/"; dir_to_string dir ]

let flood ~switch =
  require_ident ~what:"switch" switch;
  String.concat "" [ "vswitch."; switch; "/flood" ]

let uplink ~switch ~uplink dir =
  require_ident ~what:"switch" switch;
  (match dir with
  | Drop -> invalid_arg "Marker.uplink: wires carry rx/tx only"
  | Rx | Tx -> ());
  String.concat ""
    [ "wire."; switch; "-u"; Int.to_string uplink; "/"; dir_to_string dir ]
