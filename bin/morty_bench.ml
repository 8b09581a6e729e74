(* Command-line experiment runner: run any single experiment point
   (system x network x workload x load) and print the paper-style
   result row.

     dune exec bin/morty_bench.exe -- --system morty --setup reg \
       --workload retwis --theta 0.9 --clients 128 --cores 4 *)

open Cmdliner

let system_arg =
  let parse s =
    match Harness.Run.system_of_string s with
    | Some sys -> Ok sys
    | None ->
      if String.lowercase_ascii s = "tapir-nodist" then Ok Harness.Run.Tapir_nodist
      else Error (`Msg (Printf.sprintf "unknown system %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (Harness.Run.system_name s) in
  Arg.conv (parse, print)

let setup_arg =
  let parse s =
    match Simnet.Latency.setup_of_string s with
    | Some setup -> Ok setup
    | None -> Error (`Msg (Printf.sprintf "unknown setup %S (reg|con|glo)" s))
  in
  let print ppf s = Format.pp_print_string ppf (Simnet.Latency.setup_name s) in
  Arg.conv (parse, print)

let system =
  Arg.(value & opt system_arg Harness.Run.Morty & info [ "system"; "s" ]
         ~doc:"System to run: morty | mvtso | tapir | tapir-nodist | spanner.")

let setup =
  Arg.(value & opt setup_arg Simnet.Latency.Reg & info [ "setup" ]
         ~doc:"Network setup: reg | con | glo (Table 2).")

let workload =
  Arg.(value
       & opt
           (enum
              [ ("retwis", `Retwis); ("tpcc", `Tpcc); ("ycsb", `Ycsb);
                ("smallbank", `Smallbank) ])
           `Retwis
       & info [ "workload"; "w" ] ~doc:"Workload: retwis | tpcc | ycsb | smallbank.")

let theta =
  Arg.(value & opt float 0.9 & info [ "theta" ] ~doc:"Retwis Zipf coefficient.")

let keys =
  Arg.(value & opt int 100_000 & info [ "keys" ] ~doc:"Retwis keyspace size.")

let warehouses =
  Arg.(value & opt int 10 & info [ "warehouses" ] ~doc:"TPC-C warehouse count.")

let read_pct =
  Arg.(value & opt int 50 & info [ "read-pct" ] ~doc:"YCSB read percentage.")

let clients =
  Arg.(value & opt int 64 & info [ "clients"; "c" ] ~doc:"Closed-loop clients.")

let cores =
  Arg.(value & opt int 4 & info [ "cores" ]
         ~doc:"Cores per replica (Morty/MVTSO) or replica groups (TAPIR/Spanner).")

let duration_ms =
  Arg.(value & opt int 1000 & info [ "duration-ms" ]
         ~doc:"Measurement window in virtual milliseconds.")

let warmup_ms =
  Arg.(value & opt int 300 & info [ "warmup-ms" ] ~doc:"Warm-up trim in virtual ms.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic RNG seed.")

let sweep =
  Arg.(value & opt (some (list int)) None
       & info [ "sweep" ]
           ~doc:"Comma-separated client counts: run one point per count and \
                 print the whole load-latency curve.")

let jobs =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ]
           ~doc:"Worker domains for --sweep points.  $(b,1) (default) runs \
                 the points serially on the calling domain; $(b,0) picks \
                 recommended_domain_count - 1.  Rows, files and summaries \
                 are byte-identical whatever the value — throughput \
                 reporting goes to stderr.")

let kill_at_ms =
  Arg.(value & opt (some int) None
       & info [ "kill-at-ms" ]
           ~doc:"Amnesia-crash the victim replica at this virtual time: the \
                 replica loses all in-memory state.")

let restart_at_ms =
  Arg.(value & opt (some int) None
       & info [ "restart-at-ms" ]
           ~doc:"Restart the killed victim as a fresh incarnation (peer \
                 catch-up) at this virtual time.")

let victim =
  Arg.(value & opt int (-1)
       & info [ "victim" ]
           ~doc:"Replica slot for --kill-at-ms/--restart-at-ms (wraps mod the \
                 cluster size; default: the last replica).")

let partition_at_ms =
  Arg.(value & opt (some int) None
       & info [ "partition-at-ms" ]
           ~doc:"Cut one datacenter (latency region) off from the rest of the \
                 cluster — replicas and clients alike — at this virtual time.")

let heal_at_ms =
  Arg.(value & opt (some int) None
       & info [ "heal-at-ms" ]
           ~doc:"Heal the --partition-at-ms cut at this virtual time, \
                 restoring exactly the links it removed.")

let partition_group =
  Arg.(value & opt int 0
       & info [ "partition-group" ]
           ~doc:"Region index for --partition-at-ms (wraps mod the region \
                 count).")

let max_staleness_us =
  Arg.(value & opt int 0
       & info [ "max-staleness-us" ]
           ~doc:"Follower-read staleness bound, virtual µs.  $(b,0) (default) \
                 disables follower reads; positive values route read-only \
                 transactions to watermark-fresh replicas and print an \
                 availability row after the result.")

let trace_out =
  Out_flags.trace_out
    "Write a per-transaction span trace (Chrome trace_event JSON, \
     loadable in Perfetto / chrome://tracing) to $(docv).  With \
     --sweep, the last point's trace wins."

let metrics_out =
  Out_flags.path_opt "metrics-out" ~docv:"FILE"
    "Write per-replica time-series samples (CPU busy fraction, \
     queue depth, record/store sizes, watermark lag on a 10 ms \
     virtual ticker) as CSV to $(docv)."

let profile_out =
  Out_flags.profile_out
    "Write the critical-path profile (per-transaction latency \
     decomposition, wasted-work account, key-contention heatmap) \
     as single-line JSON to $(docv), and print a human summary.  \
     With --sweep, one JSON document per line, one per point."

let lineage_out =
  Out_flags.lineage_out
    "Write the run's causal lineage (JSONL, one transaction per \
     line: reads with superseding writers, re-execution triggers \
     with aggressor transactions, typed abort blame) to $(docv) \
     and print a one-line digest on stderr.  Feed the file to \
     $(b,morty_inspect) to explain contention.  With --sweep, \
     points append in order.  Stdout is byte-identical with or \
     without this flag."

let ledger_out =
  Out_flags.ledger_out
    "Write the run as a run ledger (one line per point and \
     metric, single-seed samples) to $(docv).  Two runs behave \
     alike exactly when their ledgers are byte-identical, so \
     $(b,diff) compares them.  Stdout is byte-identical with or \
     without this flag."

let monitors =
  Arg.(value & flag
       & info [ "monitors" ]
           ~doc:"Attach online invariant monitors and the flight recorder to \
                 the run and print a violation summary after the result row.  \
                 Monitors are pure observers: the result is byte-identical \
                 with or without them.")

let postmortem_out =
  Out_flags.postmortem_out
    "If the run records any incident (monitor violation or \
     replica kill), write a post-mortem bundle (violations, \
     per-replica snapshots, flight-recorder ring, trace slice, \
     profile, metrics) to directory $(docv).  Implies \
     --monitors.  With --sweep, bundles go to $(docv), \
     $(docv).2, ... per point."

let run system setup workload theta keys warehouses read_pct clients cores
    duration_ms warmup_ms seed sweep jobs kill_at_ms restart_at_ms victim
    partition_at_ms heal_at_ms partition_group max_staleness_us trace_out
    metrics_out profile_out lineage_out ledger_out monitors postmortem_out =
  let e_workload =
    match workload with
    | `Retwis -> Harness.Run.Retwis { Workload.Retwis.n_keys = keys; theta }
    | `Tpcc -> Harness.Run.Tpcc (Workload.Tpcc.conf_with_warehouses warehouses)
    | `Ycsb ->
      Harness.Run.Ycsb
        { Workload.Ycsb.default_conf with n_keys = keys; theta; read_pct }
    | `Smallbank ->
      Harness.Run.Smallbank { Workload.Smallbank.default_conf with theta }
  in
  let mk clients =
    {
      Harness.Run.default_exp with
      e_system = system;
      e_setup = setup;
      e_workload;
      e_clients = clients;
      e_cores = cores;
      e_measure_us = duration_ms * 1000;
      e_warmup_us = warmup_ms * 1000;
      e_seed = seed;
      e_max_staleness_us = max 0 max_staleness_us;
      e_label =
        Printf.sprintf "%s/%s c=%d cores=%d" (Harness.Run.system_name system)
          (Simnet.Latency.setup_name setup) clients cores;
    }
  in
  let faults =
    if kill_at_ms = None && partition_at_ms = None then None
    else
      Some
        (fun (ops : Harness.Run.cluster_ops) ->
          (match kill_at_ms with
          | None -> ()
          | Some kill_ms ->
            ignore
              (Sim.Engine.schedule_at ops.co_engine ~at:(kill_ms * 1000)
                 (fun () -> ops.co_kill victim));
            (match restart_at_ms with
            | None -> ()
            | Some restart_ms ->
              ignore
                (Sim.Engine.schedule_at ops.co_engine ~at:(restart_ms * 1000)
                   (fun () -> ops.co_restart victim))));
          match partition_at_ms with
          | None -> ()
          | Some part_ms ->
            ignore
              (Sim.Engine.schedule_at ops.co_engine ~at:(part_ms * 1000)
                 (fun () -> ops.co_partition partition_group));
            (match heal_at_ms with
            | None -> ()
            | Some heal_ms ->
              ignore
                (Sim.Engine.schedule_at ops.co_engine ~at:(heal_ms * 1000)
                   (fun () -> ops.co_heal partition_group))))
  in
  let monitors = monitors || postmortem_out <> None in
  let profiles = Buffer.create 256 in
  let lineages = Buffer.create 256 in
  let ledger_rows = ref [] in
  let point_idx = ref 0 in
  let events = ref 0 in
  (* Worker half of a point: build private observers, run the
     experiment.  Everything it creates travels back to the main domain
     as a read-only result — with --jobs this is the only code that
     executes on a worker domain. *)
  let compute_point e =
    let label = e.Harness.Run.e_label in
    let on flag create = if flag then Some (create ()) else None in
    let obs =
      Obs.Bus.create
        ?sink:
          (on
             (trace_out <> None || metrics_out <> None || postmortem_out <> None)
             (fun () -> Obs.Sink.create ~seed:e.Harness.Run.e_seed))
        ?profile:(on (profile_out <> None) (Obs.Profile.create ~label))
        ?monitor:(on monitors Obs.Monitor.create)
        ?flight_ring:(on monitors Obs.Flight.create)
        ?lineage_log:(on (lineage_out <> None) (Obs.Lineage.create ~label))
        ()
    in
    (e, obs, Harness.Run.run_exp ?faults ~obs e)
  in
  (* Render half: all printing and file writes, always on the calling
     domain, in submission order — so stdout and every output file are
     byte-identical whatever --jobs is. *)
  let render_point (e, obs, r) =
    let sink = Obs.Bus.sink obs and prof = Obs.Bus.profile obs in
    let mon = Obs.Bus.monitor obs and lineage = Obs.Bus.lineage_log obs in
    let ev = r.Harness.Stats.r_events in
    events :=
      !events + ev.Harness.Stats.ev_timers + ev.Harness.Stats.ev_deliveries
      + ev.Harness.Stats.ev_tickers;
    Fmt.pr "%a@." Harness.Stats.pp_result r;
    if r.Harness.Stats.r_recovery.Harness.Stats.rc_kills > 0 then
      Fmt.pr "%a@." Harness.Stats.pp_recovery r;
    if max_staleness_us > 0 then Fmt.pr "%a@." Harness.Stats.pp_avail r;
    if monitors then begin
      Fmt.pr "monitors: %d violations over %d observed transitions@."
        (Obs.Monitor.n_violations mon)
        (Obs.Monitor.n_observed mon);
      List.iter
        (fun v -> Fmt.pr "  %a@." Obs.Monitor.pp_violation v)
        (Obs.Monitor.violations mon)
    end;
    (match postmortem_out with
    | Some base when Obs.Monitor.first_incident_ts mon <> None ->
      let dir = Out_flags.numbered base !point_idx in
      let reason =
        if Obs.Monitor.n_violations mon > 0 then "monitor-violation"
        else "replica-kill"
      in
      let detail =
        match Obs.Monitor.violations mon with
        | v :: _ -> Fmt.str "%a" Obs.Monitor.pp_violation v
        | [] -> (
          match Obs.Monitor.incidents mon with
          | i :: _ -> Printf.sprintf "%s %s" i.Obs.Monitor.in_kind i.in_detail
          | [] -> "")
      in
      let bundle =
        Obs.Postmortem.make ~reason ~detail ~label:e.Harness.Run.e_label
          ~seed:e.Harness.Run.e_seed ~obs ()
      in
      Obs.Postmortem.write ~dir bundle;
      Fmt.pr "post-mortem bundle written to %s/@." dir
    | Some _ | None -> ());
    incr point_idx;
    Option.iter (fun p -> Out_flags.write p (Obs.Trace.to_json sink)) trace_out;
    Option.iter (fun p -> Out_flags.write p (Obs.Metrics.to_csv sink)) metrics_out;
    if profile_out <> None then begin
      (* [to_json] is newline-terminated: with --sweep the file is one
         JSON document per line, one per point. *)
      Buffer.add_string profiles (Obs.Profile.to_json prof);
      Fmt.pr "%a" Obs.Profile.pp_summary prof
    end;
    if lineage_out <> None then begin
      Buffer.add_string lineages (Obs.Lineage.to_jsonl lineage);
      (* Digest on stderr: stdout stays byte-identical with or without
         the recorder. *)
      Fmt.epr "%a@." Obs.Lineage.pp_summary lineage
    end;
    if ledger_out <> None then
      ledger_rows :=
        (Printf.sprintf "c=%d" e.Harness.Run.e_clients,
         Harness.Stats.ledger_metrics r)
        :: !ledger_rows
  in
  Fmt.pr "%a@." Harness.Stats.pp_result_header ();
  let exps =
    match sweep with
    | None -> [ mk clients ]
    | Some counts -> List.map mk counts
  in
  let jobs = if jobs = 0 then Orchestrate.Pool.default_jobs () else max 1 jobs in
  let elapsed = Orchestrate.Report.stopwatch () in
  (if jobs <= 1 then
     (* Ground-truth serial path: compute and render interleave exactly
        as they always have. *)
     List.iter (fun e -> render_point (compute_point e)) exps
   else begin
     let pool = Orchestrate.Pool.create ~jobs in
     Fun.protect
       ~finally:(fun () -> Orchestrate.Pool.shutdown pool)
       (fun () ->
         ignore
           (Orchestrate.Pool.map pool
              ~on_ready:(fun _i p -> render_point p)
              compute_point exps))
   end);
  Option.iter (fun p -> Out_flags.write p (Buffer.contents profiles)) profile_out;
  Option.iter (fun p -> Out_flags.write p (Buffer.contents lineages)) lineage_out;
  (match ledger_out with
  | None -> ()
  | Some path ->
    (* One entry per sweep point, single-seed sample arrays.  Points
       accumulated in render order = submission order, so the artifact
       is byte-identical whatever --jobs is. *)
    let sys_name = Harness.Run.system_name system in
    let entries =
      List.rev_map
        (fun (point, row) -> Obs.Ledger.entry ~system:sys_name ~point [ row ])
        !ledger_rows
    in
    let config =
      Printf.sprintf
        "morty_bench system=%s setup=%s workload=%s clients=%s cores=%d \
         duration_ms=%d warmup_ms=%d"
        sys_name
        (Simnet.Latency.setup_name setup)
        (match workload with
        | `Retwis -> Printf.sprintf "retwis:keys=%d,theta=%g" keys theta
        | `Tpcc -> Printf.sprintf "tpcc:warehouses=%d" warehouses
        | `Ycsb ->
          Printf.sprintf "ycsb:keys=%d,theta=%g,read_pct=%d" keys theta read_pct
        | `Smallbank -> Printf.sprintf "smallbank:theta=%g" theta)
        (match sweep with
        | None -> string_of_int clients
        | Some counts -> String.concat "," (List.map string_of_int counts))
        cores duration_ms warmup_ms
    in
    Out_flags.write path
      (Obs.Ledger.render (Obs.Ledger.make ~config ~seeds:[ seed ] entries)));
  (* Throughput report on stderr only: stdout is the diff surface. *)
  Fmt.epr "%s@."
    (Orchestrate.Report.to_string
       {
         Orchestrate.Report.o_jobs = jobs;
         o_runs = List.length exps;
         o_events = !events;
         o_wall_s = elapsed ();
       })

let cmd =
  let doc = "Run one experiment point of the Morty reproduction" in
  Cmd.v
    (Cmd.info "morty_bench" ~doc)
    Term.(
      const run $ system $ setup $ workload $ theta $ keys $ warehouses
      $ read_pct $ clients $ cores $ duration_ms $ warmup_ms $ seed $ sweep
      $ jobs $ kill_at_ms $ restart_at_ms $ victim $ partition_at_ms
      $ heal_at_ms $ partition_group $ max_staleness_us $ trace_out
      $ metrics_out $ profile_out $ lineage_out $ ledger_out $ monitors
      $ postmortem_out)

let () = exit (Cmd.eval cmd)
