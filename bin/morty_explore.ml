(* Deterministic exploration harness driver: sweep systems x workloads x
   seeds x fault schedules, audit every run against the Adya
   serializability oracle plus sanity invariants, and shrink any failure
   to a minimal printed reproducer.

     dune exec bin/morty_explore.exe -- --systems all --seeds 20 --smoke

   The summary line is bit-identical across invocations with the same
   flags (no wall-clock, no OS randomness): diff two runs to check your
   build is deterministic. *)

open Cmdliner

let systems_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "all" -> Ok Harness.Run.all_systems
    | spec ->
      let names = String.split_on_char ',' spec in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | n :: rest -> (
          match Harness.Run.system_of_string n with
          | Some sys -> go (sys :: acc) rest
          | None -> Error (`Msg (Printf.sprintf "unknown system %S" n)))
      in
      go [] names
  in
  let print ppf systems =
    Format.pp_print_string ppf
      (String.concat "," (List.map Harness.Run.system_name systems))
  in
  Arg.conv (parse, print)

let systems =
  Arg.(value & opt systems_arg Harness.Run.all_systems
       & info [ "systems" ]
           ~doc:"Systems to explore: $(b,all) or a comma-separated subset of \
                 morty,mvtso,tapir,spanner.")

let workload_arg =
  let names = List.map fst Explore.Case.workloads in
  let parse s =
    if List.mem s names then Ok s
    else
      Error
        (`Msg (Printf.sprintf "unknown workload %S (known: %s)" s
                 (String.concat ", " names)))
  in
  Arg.conv (parse, Format.pp_print_string)

let workloads =
  let names = List.map fst Explore.Case.workloads in
  Arg.(value & opt (list workload_arg) [ "ycsb-small" ]
       & info [ "workloads" ]
           ~doc:(Printf.sprintf "Comma-separated workload names (known: %s)."
                   (String.concat ", " names)))

let seeds =
  Arg.(value & opt int 5
       & info [ "seeds" ] ~doc:"Number of seeds to sweep (seed-base, seed-base+1, ...).")

let seed_base =
  Arg.(value & opt int 1 & info [ "seed-base" ] ~doc:"First seed of the sweep.")

let schedules =
  Arg.(value & opt int 2
       & info [ "schedules" ]
           ~doc:"Generated fault schedules per seed (a fault-free run is always \
                 included in addition).")

let episodes =
  Arg.(value & opt int 2
       & info [ "episodes" ]
           ~doc:"Fault episodes (crash/partition/loss/delay brackets) per \
                 generated schedule.")

let clients = Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Closed-loop clients.")

let cores =
  Arg.(value & opt int 2
       & info [ "cores" ]
           ~doc:"Cores per replica (Morty/MVTSO) or replica groups (TAPIR/Spanner).")

let measure_ms =
  Arg.(value & opt int 400
       & info [ "measure-ms" ] ~doc:"Measurement window per run, virtual ms.")

let smoke =
  Arg.(value & flag
       & info [ "smoke" ]
           ~doc:"Bounded CI preset: 200 ms windows, 8 clients — each run well \
                 under a second.")

let no_kill =
  Arg.(value & flag
       & info [ "no-kill" ]
           ~doc:"Exclude amnesia-crash (kill/restart) episodes from generated \
                 schedules; keep only crash/partition/loss/delay faults.")

let partitions =
  Arg.(value & flag
       & info [ "partitions" ]
           ~doc:"Include datacenter partition+heal episodes in generated \
                 schedules (named asymmetric cuts at region granularity).")

let max_staleness_us =
  Arg.(value & opt int 0
       & info [ "max-staleness-us" ]
           ~doc:"Follower-read staleness bound, virtual µs.  $(b,0) (default) \
                 disables follower reads; positive values route read-only \
                 transactions to watermark-fresh replicas with graceful \
                 degradation under partitions.")

let monitors =
  Arg.(value & flag
       & info [ "monitors" ]
           ~doc:"Attach online invariant monitors to every run: any monitor \
                 firing counts as a failure and is shrunk like an audit \
                 failure.  Monitors are pure observers, so pass/fail \
                 histories are unchanged.")

let quiet =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Print only the summary line.")

let jobs =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ]
           ~doc:"Worker domains for the run fan-out.  $(b,1) (default) runs \
                 the original serial loop; $(b,0) picks \
                 recommended_domain_count - 1.  Output on stdout is \
                 byte-identical whatever the value — timing goes to stderr.")

let scaling =
  Arg.(value & opt (some string) None
       & info [ "scaling" ]
           ~doc:"Self-sweep the orchestrator: run the identical sweep once \
                 per jobs value in this comma-separated list (e.g. \
                 $(b,1,2,4)), print per-value throughput and a fitted \
                 USL $(b,scaling:) line to stderr.  Stdout carries the \
                 first value's transcript only (the repeats are \
                 byte-identical by construction)." ~docv:"JOBS")

let trace_out =
  Out_flags.trace_out
    "Write each audit failure's span trace (Chrome trace_event \
     JSON of the shrunk reproducer's run, Perfetto-loadable) to \
     $(docv), $(docv).2, ... in failure order."

let profile_out =
  Out_flags.profile_out
    "Write each audit failure's critical-path profile (JSON, \
     latency decomposition + wasted work + hot keys of the shrunk \
     reproducer's run) to $(docv), $(docv).2, ... in failure \
     order."

let lineage_out =
  Out_flags.lineage_out
    "Write each audit failure's causal lineage (JSONL, one \
     transaction per line: reads, re-execution triggers with \
     aggressors, typed abort blame — of the shrunk reproducer's \
     run) to $(docv), $(docv).2, ... in failure order.  Feed to \
     $(b,morty_inspect) to ask why a transaction aborted."

let postmortem_out =
  Out_flags.postmortem_out
    "Write each failure's post-mortem bundle (violations, \
     per-replica snapshots, flight-recorder ring, trace slice, \
     profile, metrics) to directory $(docv), $(docv).2, ... in \
     failure order, next to the printed reproducer."

let ledger_out =
  Out_flags.ledger_out
    "Write the sweep's runs as a run ledger to $(docv): one line \
     per system, case (workload and fault-free or schedule i) and \
     metric, holding one sample per explorer seed in seed order.  \
     A failed run reads audit_pass=0 and 0 for every other \
     metric.  Two sweeps behave alike exactly when their ledgers \
     are byte-identical.  Stdout is byte-identical with or \
     without this flag; with --scaling it reflects the first \
     sweep only."

let run systems workload_names seeds seed_base schedules episodes clients cores
    measure_ms smoke no_kill partitions max_staleness_us monitors quiet jobs
    scaling trace_out profile_out lineage_out ledger_out postmortem_out =
  let measure_us = if smoke then 200_000 else measure_ms * 1000 in
  let cfg =
    {
      Explore.Sweep.default_config with
      systems;
      workload_names;
      seeds = List.init (max 1 seeds) (fun i -> seed_base + i);
      schedules_per_seed = max 0 schedules;
      episodes = max 1 episodes;
      clients;
      cores;
      measure_us;
      kill_restart = not no_kill;
      partitions;
      max_staleness_us = max 0 max_staleness_us;
      monitors;
    }
  in
  (* One-look digest of where the run's time and contention went:
     dominant latency component plus the three hottest keys. *)
  let profile_digest prof =
    let hot =
      match Obs.Profile.hot_keys prof 3 with
      | [] -> "-"
      | hot -> String.concat "," (List.map fst hot)
    in
    Printf.sprintf "dom=%s hot=%s" (Obs.Profile.dominant_component prof) hot
  in
  let progress case prof outcome =
    if not quiet then
      match outcome with
      | Ok r ->
        let rc = r.Harness.Stats.r_recovery in
        if rc.Harness.Stats.rc_kills > 0 then
          Fmt.pr
            "pass %-55s committed=%d aborted=%d kills=%d restarts=%d \
             transfer_msgs=%d %s@."
            (Explore.Case.label case) r.Harness.Stats.r_committed
            r.Harness.Stats.r_aborted rc.Harness.Stats.rc_kills
            rc.Harness.Stats.rc_restarts rc.Harness.Stats.rc_transfer_msgs
            (profile_digest prof)
        else
          let ev = r.Harness.Stats.r_events in
          Fmt.pr
            "pass %-55s committed=%d aborted=%d events=t:%d/d:%d/k:%d %s@."
            (Explore.Case.label case) r.Harness.Stats.r_committed
            r.Harness.Stats.r_aborted ev.Harness.Stats.ev_timers
            ev.Harness.Stats.ev_deliveries ev.Harness.Stats.ev_tickers
            (profile_digest prof)
      | Error v ->
        Fmt.pr "FAIL %-55s %s %s@." (Explore.Case.label case)
          (Explore.Audit.violation_to_string v)
          (profile_digest prof)
  in
  let jobs = if jobs = 0 then Orchestrate.Pool.default_jobs () else max 1 jobs in
  let jobs_list =
    match scaling with
    | None -> [ jobs ]
    | Some spec ->
      let vals =
        List.filter_map
          (fun s -> int_of_string_opt (String.trim s))
          (String.split_on_char ',' spec)
      in
      let vals = List.filter (fun j -> j >= 1) vals in
      if vals = [] then [ jobs ] else vals
  in
  (* All timing and throughput reporting goes to stderr: stdout is the
     byte-identical diff surface the smoke aliases compare, and wall
     clock must never leak into it. *)
  let events = ref 0 in
  let count_events _case _prof outcome =
    match outcome with
    | Ok r ->
      let ev = r.Harness.Stats.r_events in
      events :=
        !events + ev.Harness.Stats.ev_timers + ev.Harness.Stats.ev_deliveries
        + ev.Harness.Stats.ev_tickers
    | Error _ -> ()
  in
  (* Ledger rows keyed by (system, workload, case index), in submission
     order: the progress callback fires in submission order whatever
     --jobs is, and each (system, workload, seed) submits its cases 0
     (fault-free) to [schedules_per_seed] in a row, so a running count
     names the index.  A failed run has no metrics ([None]). *)
  let ledger_rows = ref [] and ledger_runs = ref 0 in
  let collect_ledger case _prof outcome =
    if ledger_out <> None then begin
      let index = !ledger_runs mod (cfg.Explore.Sweep.schedules_per_seed + 1) in
      incr ledger_runs;
      let metrics =
        match outcome with
        | Ok r -> Some (Harness.Stats.ledger_metrics r)
        | Error _ -> None
      in
      ledger_rows :=
        ((case.Explore.Case.c_system, case.Explore.Case.c_workload, index), metrics)
        :: !ledger_rows
    end
  in
  let timed_sweep ~jobs ~transcript =
    let progress c p o =
      if transcript then begin
        count_events c p o;
        collect_ledger c p o;
        progress c p o
      end
    in
    let elapsed = Orchestrate.Report.stopwatch () in
    let summary = Explore.Sweep.run ~progress ~jobs cfg in
    (summary, elapsed ())
  in
  let measured =
    List.mapi
      (fun i jobs ->
        let summary, wall = timed_sweep ~jobs ~transcript:(i = 0) in
        (jobs, summary, wall))
      jobs_list
  in
  let summary, report =
    match measured with
    | (jobs, summary, wall) :: _ ->
      ( summary,
        {
          Orchestrate.Report.o_jobs = jobs;
          o_runs = summary.Explore.Sweep.s_runs;
          o_events = !events;
          o_wall_s = wall;
        } )
    | [] -> assert false
  in
  List.iteri
    (fun i
         { Explore.Sweep.f_original; f_shrunk; f_trace; f_profile; f_lineage;
           f_bundle } ->
      Fmt.pr "@.=== audit violation: %s@."
        (Explore.Audit.violation_to_string f_shrunk.Explore.Shrink.s_violation);
      Fmt.pr "original: %s@." (Explore.Case.label f_original);
      Fmt.pr "shrunk (%d runs): %s@." f_shrunk.Explore.Shrink.s_runs
        (Explore.Case.label f_shrunk.Explore.Shrink.s_case);
      Fmt.pr "--- reproducer -------------------------------------------------@.";
      Fmt.pr "%s" (Explore.Shrink.reproducer f_shrunk);
      Fmt.pr "----------------------------------------------------------------@.";
      (match trace_out with
      | None -> ()
      | Some base ->
        let path = Out_flags.numbered base i in
        Out_flags.write path f_trace;
        Fmt.pr "trace of shrunk case written to %s@." path);
      (match profile_out with
      | None -> ()
      | Some base ->
        let path = Out_flags.numbered base i in
        Out_flags.write path f_profile;
        Fmt.pr "profile of shrunk case written to %s@." path);
      (match lineage_out with
      | None -> ()
      | Some base ->
        let path = Out_flags.numbered base i in
        Out_flags.write path f_lineage;
        Fmt.pr "lineage of shrunk case written to %s@." path);
      match postmortem_out with
      | None -> ()
      | Some base ->
        let dir = Out_flags.numbered base i in
        Obs.Postmortem.write ~dir f_bundle;
        Fmt.pr "post-mortem bundle of shrunk case written to %s/@." dir)
    summary.Explore.Sweep.s_failures;
  Fmt.pr "SUMMARY %a@." Explore.Sweep.pp_summary summary;
  (match ledger_out with
  | None -> ()
  | Some path ->
    let rows = List.rev !ledger_rows in
    (* One point per case, one sample per seed: a failed run reports 0
       for every metric its point's passing runs report, so every array
       lines up with the header's seeds. *)
    let entry sys wname index =
      let key = (sys, wname, index) in
      match List.filter_map (fun (k, m) -> if k = key then Some m else None) rows with
      | [] -> None
      | samples ->
        let names =
          match List.find_map Fun.id samples with
          | Some m -> List.map fst m
          | None -> []
        in
        let row = function
          | Some m -> ("audit_pass", 1.) :: m
          | None -> ("audit_pass", 0.) :: List.map (fun n -> (n, 0.)) names
        in
        let point =
          if index = 0 then wname ^ " fault-free"
          else Printf.sprintf "%s schedule %d" wname index
        in
        Some
          (Obs.Ledger.entry ~system:(Harness.Run.system_name sys) ~point
             (List.map row samples))
    in
    let entries =
      List.concat_map
        (fun sys ->
          List.concat_map
            (fun wname ->
              List.filter_map (entry sys wname)
                (List.init (cfg.Explore.Sweep.schedules_per_seed + 1) Fun.id))
            workload_names)
        systems
    in
    let config =
      Printf.sprintf
        "morty_explore workloads=%s schedules=%d episodes=%d clients=%d \
         cores=%d measure_us=%d kill_restart=%b partitions=%b \
         max_staleness_us=%d systems=%s"
        (String.concat "," workload_names)
        cfg.Explore.Sweep.schedules_per_seed cfg.Explore.Sweep.episodes clients
        cores measure_us cfg.Explore.Sweep.kill_restart
        cfg.Explore.Sweep.partitions cfg.Explore.Sweep.max_staleness_us
        (String.concat "," (List.map Harness.Run.system_name systems))
    in
    Out_flags.write path
      (Obs.Ledger.render
         (Obs.Ledger.make ~config ~seeds:cfg.Explore.Sweep.seeds entries)));
  Fmt.epr "%s@." (Orchestrate.Report.to_string report);
  (match measured with
  | _ :: _ :: _ ->
    let points =
      List.map
        (fun (jobs, (s : Explore.Sweep.summary), wall) ->
          (jobs, float_of_int s.Explore.Sweep.s_runs /. Float.max wall 1e-9))
        measured
    in
    Fmt.epr "%s@." (Orchestrate.Report.scaling_line points)
  | _ -> ());
  if summary.Explore.Sweep.s_failures = [] then 0 else 1

let cmd =
  let doc = "Deterministic exploration: audited histories under seeded fault schedules" in
  Cmd.v
    (Cmd.info "morty_explore" ~doc)
    Term.(
      const run $ systems $ workloads $ seeds $ seed_base $ schedules $ episodes
      $ clients $ cores $ measure_ms $ smoke $ no_kill $ partitions
      $ max_staleness_us $ monitors $ quiet $ jobs $ scaling $ trace_out
      $ profile_out $ lineage_out $ ledger_out $ postmortem_out)

let () = exit (Cmd.eval' cmd)
