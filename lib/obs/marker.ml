(* Typed stat markers; see marker.mli for the label bytes.

   The exit reasons mirror Armvirt_arch.Esr.exception_class — obs sits
   below arch in the library graph (arch -> stats -> obs), so the enum
   is duplicated here, Esr.marker_reason maps one onto the other and
   test_esr checks the map is one to one. *)

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

type dir = Rx | Tx | Drop

let dir_to_string = function Rx -> "rx" | Tx -> "tx" | Drop -> "drop"

type t =
  | Exit of { hyp : string; reason : reason; pcpu : int }
  | Entry of { hyp : string; pcpu : int; domid : int option }
  | Op of { hyp : string; name : string; cat : Span.category }
  | Port of { switch : string; port : int; dir : dir }
  | Flood of { switch : string }
  | Uplink of { switch : string; uplink : int; dir : dir }

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

let exit ~hyp ~reason ~pcpu =
  require_ident ~what:"hypervisor" hyp;
  Exit { hyp; reason; pcpu }

let entry ?domid ~hyp ~pcpu () =
  require_ident ~what:"hypervisor" hyp;
  Entry { hyp; pcpu; domid }

let op ~hyp cat name =
  require_ident ~what:"hypervisor" hyp;
  if
    not
      (String.length name > 0
      && String.for_all
           (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
           name)
  then invalid_arg (Printf.sprintf "Marker.op: %S must match [a-z0-9_]+" name);
  Op { hyp; name; cat }

let port ~switch ~port dir =
  require_ident ~what:"switch" switch;
  Port { switch; port; dir }

let flood ~switch =
  require_ident ~what:"switch" switch;
  Flood { switch }

let uplink ~switch ~uplink dir =
  require_ident ~what:"switch" switch;
  (match dir with
  | Drop -> invalid_arg "Marker.uplink: wires carry rx/tx only"
  | Rx | Tx -> ());
  Uplink { switch; uplink; dir }

let hyp = function
  | Exit { hyp; _ } | Entry { hyp; _ } | Op { hyp; _ } -> hyp
  | Port _ | Flood _ -> "vswitch"
  | Uplink _ -> "wire"

(* Concatenated directly: the same bytes as the format strings in
   marker.mli, without a [Printf.sprintf] per label. *)
let label = function
  | Exit { hyp; reason; pcpu } ->
      String.concat ""
        [ hyp; ".exit/"; reason_to_string reason; "/p"; Int.to_string pcpu ]
  | Entry { hyp; pcpu; domid = None } ->
      String.concat "" [ hyp; ".entry/p"; Int.to_string pcpu ]
  | Entry { hyp; pcpu; domid = Some d } ->
      String.concat ""
        [ hyp; ".entry/p"; Int.to_string pcpu; "/d"; Int.to_string d ]
  | Op { hyp; name; _ } -> hyp ^ "." ^ name
  | Port { switch; port; dir } ->
      String.concat ""
        [ "vswitch."; switch; "/p"; Int.to_string port; "/"; dir_to_string dir ]
  | Flood { switch } -> String.concat "" [ "vswitch."; switch; "/flood" ]
  | Uplink { switch; uplink; dir } ->
      String.concat ""
        [ "wire."; switch; "-u"; Int.to_string uplink; "/"; dir_to_string dir ]

let name t =
  let label = label t and skip = String.length (hyp t) + 1 in
  String.sub label skip (String.length label - skip)

let category = function
  | Exit _ | Entry _ -> Span.Vmexit
  | Op { cat; _ } -> cat
  | Port { dir = Rx | Tx; _ } | Uplink _ -> Span.Io
  | Port { dir = Drop; _ } | Flood _ -> Span.Other
