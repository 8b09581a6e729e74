(* Offline ledger reporter: statistical comparison, PR-over-PR metric
   trajectories, and gate post-mortems — all from committed artifacts,
   no simulator state.

     morty_report compare BASE CUR            verdict table (exit 1 on
                                              REGRESS)
     morty_report trajectory FILE ...         markdown history tables,
                                              one per metric, across
                                              every given artifact (run
                                              ledgers and the legacy
                                              flat BENCH_*.json alike)
     morty_report explain BASE CUR SYS METRIC why one gate fired
     morty_report det FILE                    canonical deterministic
                                              projection (byte-diff
                                              surface for CI)

   Exit codes are shared with bench-check and morty_inspect: 0 ok,
   1 regression found, 2 usage, 3 missing file, 4 empty/malformed
   artifact, 5 schema-version mismatch. *)

let usage () =
  prerr_endline
    "usage: morty_report compare BASELINE.json CURRENT.json\n\
    \       morty_report trajectory FILE.json [FILE.json ...]\n\
    \       morty_report explain BASELINE.json CURRENT.json SYSTEM METRIC\n\
    \       morty_report det FILE.json\n\
     exit codes: 0 ok, 1 regression, 2 usage, 3 missing file,\n\
    \            4 empty/malformed artifact, 5 schema mismatch";
  exit 2

let fail_ledger path e =
  Printf.eprintf "morty_report: %s: %s\n" path (Obs.Ledger.error_to_string e);
  exit (Obs.Ledger.error_exit_code e)

let load path =
  match Obs.Ledger.load path with Ok l -> l | Error e -> fail_ledger path e

let compare_cmd base_path cur_path =
  let baseline = load base_path and current = load cur_path in
  let c = Obs.Ledger.compare_ledgers ~baseline ~current () in
  Format.printf "%a" Obs.Ledger.pp_verdict_table c;
  if c.Obs.Ledger.c_regressions > 0 || not c.Obs.Ledger.c_config_match then
    exit 1

let explain_cmd base_path cur_path sys metric =
  let baseline = load base_path and current = load cur_path in
  let c = Obs.Ledger.compare_ledgers ~baseline ~current () in
  match Obs.Ledger.explain_metric c ~system:sys ~metric with
  | Some s -> print_string s
  | None ->
    Printf.eprintf
      "morty_report: no metric %S for system %S in either ledger\n" metric sys;
    exit 2

let det_cmd path = print_string (Obs.Ledger.det_json (load path))

(* --- trajectory ---------------------------------------------------- *)

(* One artifact column: per system, per metric, a rendered cell and a
   sort key.  Ledger cells show mean±sd over the seed set; legacy flat
   baselines (single-seed BENCH_*.json) show the bare value. *)

type column = {
  col_name : string;  (** file basename, the table column header *)
  col_cells : ((string * string) * string) list;  (** (system, metric) -> cell *)
}

let num_cell v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let ledger_column path (l : Obs.Ledger.t) =
  let cells =
    List.concat_map
      (fun (e : Obs.Ledger.entry) ->
        List.map
          (fun (m, samples) ->
            let s = Obs.Bstats.summarize samples in
            let cell =
              if s.Obs.Bstats.n <= 1 then num_cell s.Obs.Bstats.mean
              else
                Printf.sprintf "%s ± %s" (num_cell s.Obs.Bstats.mean)
                  (num_cell s.Obs.Bstats.sd)
            in
            ((e.Obs.Ledger.en_system, m), cell))
          (e.Obs.Ledger.en_det @ e.Obs.Ledger.en_host))
      l.Obs.Ledger.entries
  in
  { col_name = Filename.basename path; col_cells = cells }

let legacy_column path (j : Obs.Ledger.J.v) =
  let cells =
    match j with
    | Obs.Ledger.J.Obj systems ->
      List.concat_map
        (fun (sys, v) ->
          match v with
          | Obs.Ledger.J.Obj metrics ->
            List.filter_map
              (fun (m, v) ->
                match v with
                | Obs.Ledger.J.Num x -> Some ((sys, m), num_cell x)
                | _ -> None)
              metrics
          | _ -> [])
        systems
    | _ -> []
  in
  if cells = [] then begin
    Printf.eprintf
      "morty_report: %s: no numeric system metrics (not a bench artifact)\n"
      path;
    exit 4
  end;
  { col_name = Filename.basename path; col_cells = cells }

let read_column path =
  match Obs.Ledger.load path with
  | Ok l -> ledger_column path l
  | Error (Obs.Ledger.Missing_file _ as e) -> fail_ledger path e
  | Error (Obs.Ledger.Schema _ as e) -> fail_ledger path e
  | Error (Obs.Ledger.Empty | Obs.Ledger.Parse _) -> (
    (* not a run ledger — try the legacy flat {"sys":{...}} shape *)
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg ->
      Printf.eprintf "morty_report: %s\n" msg;
      exit 3
    | "" -> fail_ledger path Obs.Ledger.Empty
    | body -> (
      match Obs.Ledger.J.parse body with
      | Ok j -> legacy_column path j
      | Error msg -> fail_ledger path (Obs.Ledger.Parse msg)))

(* Stable union in first-appearance order. *)
let union keys =
  List.fold_left
    (fun acc k -> if List.mem k acc then acc else acc @ [ k ])
    [] keys

let trajectory paths =
  let cols = List.map read_column paths in
  let metrics =
    union (List.concat_map (fun c -> List.map (fun ((_, m), _) -> m) c.col_cells) cols)
  in
  let systems =
    union (List.concat_map (fun c -> List.map (fun ((s, _), _) -> s) c.col_cells) cols)
  in
  Printf.printf "# Metric trajectory (%d artifacts)\n" (List.length cols);
  List.iter
    (fun metric ->
      let rows =
        List.filter
          (fun sys ->
            List.exists
              (fun c -> List.mem_assoc (sys, metric) c.col_cells)
              cols)
          systems
      in
      if rows <> [] then begin
        Printf.printf "\n## %s\n\n" metric;
        Printf.printf "| system |%s\n"
          (String.concat ""
             (List.map (fun c -> Printf.sprintf " %s |" c.col_name) cols));
        Printf.printf "|---|%s\n"
          (String.concat "" (List.map (fun _ -> "---|") cols));
        List.iter
          (fun sys ->
            Printf.printf "| %s |%s\n" sys
              (String.concat ""
                 (List.map
                    (fun c ->
                      match List.assoc_opt (sys, metric) c.col_cells with
                      | Some cell -> Printf.sprintf " %s |" cell
                      | None -> " — |")
                    cols)))
          rows
      end)
    metrics

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: base :: cur :: [] -> compare_cmd base cur
  | _ :: "explain" :: base :: cur :: sys :: metric :: [] ->
    explain_cmd base cur sys metric
  | _ :: "det" :: path :: [] -> det_cmd path
  | _ :: "trajectory" :: (_ :: _ as paths) -> trajectory paths
  | _ -> usage ()
