(* Correctness goldens: the stdout digest of every invocation of one pass
   at seed 42, captured before any optimisation. One file per golden name
   under bench/ledger/golden, one "<md5-hex> <argv>" line per invocation,
   in pass order. *)

let seed = 42
let default_dir = "bench/ledger/golden"
let path ~dir name = Filename.concat dir (name ^ ".md5")

let load ~dir name =
  In_channel.with_open_text (path ~dir name) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.index_opt line ' ' with
         | Some i -> Some (String.sub line 0 i)
         | None -> None)

let write ~dir name lines =
  Out_channel.with_open_text (path ~dir name) (fun oc ->
      List.iter
        (fun (digest, args) ->
          Printf.fprintf oc "%s %s\n" digest (String.concat " " args))
        lines)
