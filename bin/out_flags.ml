(* Output-file flags shared by morty_bench and morty_explore.  The two
   drivers write different artifacts behind the same flag name, so each
   passes its own --help text. *)

open Cmdliner

let path_opt name ~docv doc =
  Arg.(value & opt (some string) None & info [ name ] ~doc ~docv)

let trace_out = path_opt "trace-out" ~docv:"FILE"

let profile_out = path_opt "profile-out" ~docv:"FILE"

let lineage_out = path_opt "lineage-out" ~docv:"FILE"

let postmortem_out = path_opt "postmortem-out" ~docv:"DIR"

let ledger_out = path_opt "ledger-out" ~docv:"FILE"

let write path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* The [i]-th (0-based) artifact behind one flag: BASE, BASE.2, ... *)
let numbered base i =
  if i = 0 then base else Printf.sprintf "%s.%d" base (i + 1)
