type config = {
  systems : Harness.Run.system list;
  workload_names : string list;
  seeds : int list;
  schedules_per_seed : int;
  episodes : int;
  clients : int;
  cores : int;
  warmup_us : int;
  measure_us : int;
  shrink_budget : int;
  kill_restart : bool;
  partitions : bool;
  max_staleness_us : int;
  monitors : bool;
}

let default_config =
  {
    systems = Harness.Run.all_systems;
    workload_names = [ "ycsb-small" ];
    seeds = [ 1; 2; 3; 4; 5 ];
    schedules_per_seed = 2;
    episodes = 2;
    clients = 8;
    cores = 2;
    warmup_us = 50_000;
    measure_us = 200_000;
    shrink_budget = 80;
    kill_restart = true;
    partitions = false;
    max_staleness_us = 0;
    monitors = false;
  }

let smoke_config =
  { default_config with seeds = [ 1; 2 ]; schedules_per_seed = 1 }

type failure = {
  f_original : Case.t;
  f_shrunk : Shrink.outcome;
  f_trace : string;
  f_profile : string;
  f_lineage : string;
  f_bundle : Obs.Postmortem.t;
}

type summary = {
  s_runs : int;
  s_passed : int;
  s_committed : int;
  s_aborted : int;
  s_failures : failure list;
}

let case_of cfg system workload_name ~seed ~schedule =
  {
    Case.c_system = system;
    c_workload = workload_name;
    c_seed = seed;
    c_clients = cfg.clients;
    c_cores = cfg.cores;
    c_warmup_us = cfg.warmup_us;
    c_measure_us = cfg.measure_us;
    c_max_staleness_us = cfg.max_staleness_us;
    c_schedule = schedule;
  }

(* The schedule stream is keyed on (seed, index) alone — not on the
   system or workload — so the same faults hit every system at the same
   virtual times, which makes cross-system comparisons of a failing
   seed meaningful. *)
let schedule_for cfg ~seed ~index =
  if index = 0 then Schedule.empty
  else
    let rng = Sim.Rng.create ((seed * 1_000_003) + index) in
    Schedule.generate ~kill_restart:cfg.kill_restart ~partitions:cfg.partitions
      ~rng
      ~horizon_us:(cfg.warmup_us + cfg.measure_us)
      ~n_replicas:4 ~episodes:cfg.episodes ()

(* Every run of the sweep — worker-domain runs included — attaches a
   fresh monitor set (or the calling domain's disabled singleton), so
   no monitor state is ever shared across runs or domains. *)
let bus_for cfg ?profile () =
  Obs.Bus.create ?profile
    ~monitor:(if cfg.monitors then Obs.Monitor.create () else Obs.Monitor.null ())
    ()

let fails_for cfg c =
  match Case.run ~obs:(bus_for cfg ()) c with Ok _ -> None | Error v -> Some v

(* Shrink one failure and re-run the minimized case with the full
   observer set on: the span trace, critical-path profile and a
   post-mortem bundle of the failing history ride along with the
   reproducer.  Monitors and the flight recorder are always attached
   here — even when the sweep itself ran without them — so every bundle
   ships ring contents and snapshots.  Determinism guarantees it is the
   same history the audit rejected.

   Shared verbatim by the serial and parallel sweeps: only the [batch]
   evaluator for event-dropping shrink steps differs, and the batch
   contract (see {!Shrink.batch}) makes the outcome identical. *)
let failure_of ?batch cfg case v =
  let shrunk =
    Shrink.minimize ~max_runs:cfg.shrink_budget ?batch ~fails:(fails_for cfg)
      case v
  in
  let trace, profile, lineage, bundle =
    let sc = shrunk.Shrink.s_case in
    let label = Case.label sc in
    let obs =
      Obs.Bus.create ~sink:(Obs.Sink.create ~seed:sc.Case.c_seed)
        ~profile:(Obs.Profile.create ~label ()) ~monitor:(Obs.Monitor.create ())
        ~flight_ring:(Obs.Flight.create ())
        ~lineage_log:(Obs.Lineage.create ~label ()) ()
    in
    ignore (Case.run ~obs sc);
    let reason =
      match shrunk.Shrink.s_violation with
      | Audit.Monitor_violation _ -> "monitor-violation"
      | _ -> "audit-failure"
    in
    let bundle =
      Obs.Postmortem.make ~reason
        ~detail:(Audit.violation_to_string shrunk.Shrink.s_violation)
        ~label ~seed:sc.Case.c_seed ~obs ()
    in
    ( Obs.Trace.to_json (Obs.Bus.sink obs),
      Obs.Profile.to_json (Obs.Bus.profile obs),
      Obs.Lineage.to_jsonl (Obs.Bus.lineage_log obs),
      bundle )
  in
  {
    f_original = case;
    f_shrunk = shrunk;
    f_trace = trace;
    f_profile = profile;
    f_lineage = lineage;
    f_bundle = bundle;
  }

(* Pool-backed batch evaluator for one shrink step: fan the candidates
   across the worker domains, then resolve first-failure-wins by
   candidate index and charge runs by the serial rule ({!Shrink.batch}).
   Candidates beyond the remaining budget are never submitted. *)
let pool_batch pool cfg ~budget cands =
  let take = min (List.length cands) budget in
  let submitted = List.filteri (fun i _ -> i < take) cands in
  let verdicts = Orchestrate.Pool.map pool (fails_for cfg) submitted in
  let rec first i = function
    | [] -> None
    | Some v :: _ -> Some (i, v)
    | None :: rest -> first (i + 1) rest
  in
  match first 0 verdicts with
  | Some (i, v) -> (Some (i, v), i + 1)
  | None -> (None, take)

(* All (system, workload, seed, schedule-index) jobs in the serial
   nesting order — the submission order the parallel merge reproduces. *)
let cases_of cfg =
  List.concat_map
    (fun system ->
      List.concat_map
        (fun wname ->
          List.concat_map
            (fun seed ->
              List.init (cfg.schedules_per_seed + 1) (fun index ->
                  let schedule = schedule_for cfg ~seed ~index in
                  case_of cfg system wname ~seed ~schedule))
            cfg.seeds)
        cfg.workload_names)
    cfg.systems

let run_serial ~progress cfg =
  let runs = ref 0 and passed = ref 0 in
  let committed = ref 0 and aborted = ref 0 in
  let failures = ref [] in
  List.iter
    (fun system ->
      List.iter
        (fun wname ->
          List.iter
            (fun seed ->
              for index = 0 to cfg.schedules_per_seed do
                let schedule = schedule_for cfg ~seed ~index in
                let case = case_of cfg system wname ~seed ~schedule in
                let prof = Obs.Profile.create ~label:(Case.label case) () in
                let outcome = Case.run ~obs:(bus_for cfg ~profile:prof ()) case in
                incr runs;
                progress case prof outcome;
                match outcome with
                | Ok r ->
                  incr passed;
                  committed := !committed + r.Harness.Stats.r_committed;
                  aborted := !aborted + r.Harness.Stats.r_aborted
                | Error v -> failures := failure_of cfg case v :: !failures
              done)
            cfg.seeds)
        cfg.workload_names)
    cfg.systems;
  {
    s_runs = !runs;
    s_passed = !passed;
    s_committed = !committed;
    s_aborted = !aborted;
    s_failures = List.rev !failures;
  }

let run_parallel ~progress ~jobs cfg =
  let pool = Orchestrate.Pool.create ~jobs in
  Fun.protect
    ~finally:(fun () -> Orchestrate.Pool.shutdown pool)
    (fun () ->
      let runs = ref 0 and passed = ref 0 in
      let committed = ref 0 and aborted = ref 0 in
      (* Phase 1: fan the audited runs out.  Each worker builds its own
         engine, RNG, profiler and monitors inside [Case.run]; progress
         fires on this domain in submission order, so transcripts are
         byte-identical to the serial sweep's. *)
      let results =
        Orchestrate.Pool.map pool
          ~on_ready:(fun _i (case, prof, outcome) ->
            incr runs;
            progress case prof outcome;
            match outcome with
            | Ok r ->
              incr passed;
              committed := !committed + r.Harness.Stats.r_committed;
              aborted := !aborted + r.Harness.Stats.r_aborted
            | Error _ -> ())
          (fun case ->
            let prof = Obs.Profile.create ~label:(Case.label case) () in
            let outcome = Case.run ~obs:(bus_for cfg ~profile:prof ()) case in
            (case, prof, outcome))
          (cases_of cfg)
      in
      (* Phase 2: shrink failures in submission order.  Shrinking stays
         serial per failure, but each event-dropping step's candidates
         fan across the same pool with first-failure-wins by index. *)
      let failures =
        List.filter_map
          (fun (case, _prof, outcome) ->
            match outcome with
            | Ok _ -> None
            | Error v ->
              Some (failure_of ~batch:(pool_batch pool cfg) cfg case v))
          results
      in
      {
        s_runs = !runs;
        s_passed = !passed;
        s_committed = !committed;
        s_aborted = !aborted;
        s_failures = failures;
      })

let run ?(progress = fun _ _ _ -> ()) ?(jobs = 1) cfg =
  if jobs <= 1 then run_serial ~progress cfg
  else run_parallel ~progress ~jobs cfg

let pp_summary ppf s =
  Fmt.pf ppf "runs=%d passed=%d failed=%d committed=%d aborted=%d" s.s_runs
    s.s_passed
    (List.length s.s_failures)
    s.s_committed s.s_aborted
