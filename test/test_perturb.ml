(* The perturbation matrix: a run is a pure function of its seed,
   whatever observers are attached and whatever --jobs is.

   Cells: {Morty, MVTSO, TAPIR, Spanner} x {serial, Orchestrate.Pool at
   2 jobs} x {no observer, each of the five observers alone, all five}.
   Every cell runs the same three cases through [Explore.Case.run]:
   fault-free, one kill/restart, and one datacenter partition with
   follower reads on.  Case by case, the cells must agree on:

   - the audited result.  Cells with the same footprint (sink attached?
     lineage recorder attached?) agree structurally.  Across footprints
     only what those two observers add may differ: the sink's metrics
     ticker shows up in the engine counters, the recorder's digest in
     [r_lineage].
   - zero monitor violations, where monitors are attached.
   - each observer's artifact, byte for byte.  The flight recorder also
     rings the sink's spans and ticks, so its artifact is compared
     among cells that agree on the sink.

   A failure names the cell and the first case that differs from the
   first cell to produce the same comparison.

   The [all] cells also pin every artifact across revisions: the MD5 of
   each case's trace, metrics, profile, flight ring and lineage, plus
   the monitor's observed-transition count, must equal
   test/golden_observers.txt.  On mismatch the system's actual lines
   are written to golden_observers-SYS.actual next to the test binary.
   And one check runs across two recorders of the same stream: every
   finished transaction appears once as a [txn] span in the trace and
   once as a finished lineage record. *)

module Stats = Harness.Stats
module Case = Explore.Case
module Schedule = Explore.Schedule

type observers = {
  sink : bool;
  profile : bool;
  monitor : bool;
  flight : bool;
  lineage : bool;
}

let none =
  { sink = false; profile = false; monitor = false; flight = false; lineage = false }

let observer_sets =
  [
    ("none", none);
    ("sink", { none with sink = true });
    ("profile", { none with profile = true });
    ("monitor", { none with monitor = true });
    ("flight", { none with flight = true });
    ("lineage", { none with lineage = true });
    ( "all",
      { sink = true; profile = true; monitor = true; flight = true; lineage = true }
    );
  ]

let cases system =
  let base = { Case.default with Case.c_system = system } in
  let at at_us ev = { Schedule.at_us; ev } in
  [
    base;
    {
      base with
      c_schedule =
        Schedule.of_list [ at 80_000 (Schedule.Kill 1); at 160_000 (Restart 1) ];
    };
    {
      base with
      c_max_staleness_us = 50_000;
      c_schedule =
        Schedule.of_list [ at 80_000 (Schedule.Partition 1); at 160_000 (Heal 1) ];
    };
  ]

type outcome = {
  verdict : (Stats.result, Explore.Audit.violation) result;
  violations : int;  (** monitor violations *)
  artifacts : (string * string) list;  (** (kind, bytes) per observer *)
  observed : int;  (** monitor transitions *)
  finished : string list * string list;
      (** sorted [ver] args of the trace's [txn] spans and sorted
          versions of finished lineage records *)
}

(* Sorted [ver] args of the trace's [txn] spans, and sorted versions of
   the finished lineage records. *)
let finished_of obs =
  let sorted f l = List.sort compare (List.filter_map f l) in
  ( sorted
      (fun (e : Obs.Sink.event) ->
        match (e.ev_ph, e.ev_name, List.assoc_opt "ver" e.ev_args) with
        | Obs.Sink.Complete, "txn", Some (Obs.Sink.S v) -> Some v
        | _ -> None)
      (Obs.Sink.events (Obs.Bus.sink obs)),
    sorted
      (fun (r : Obs.Lineage.record) ->
        if r.r_end_us > 0 then Some (Fmt.str "%a" Obs.Lineage.pp_ver r.r_ver)
        else None)
      (Obs.Lineage.records (Obs.Bus.lineage_log obs)) )

(* Runs on a worker domain in the parallel cells: every observer is
   created here, and only immutable data travels back. *)
let run_case o case =
  let label = Case.label case in
  let on flag create = if flag then Some (create ()) else None in
  let obs =
    Obs.Bus.create
      ?sink:(on o.sink (fun () -> Obs.Sink.create ~seed:case.Case.c_seed))
      ?profile:(on o.profile (Obs.Profile.create ~label))
      ?monitor:(on o.monitor Obs.Monitor.create)
      ?flight_ring:(on o.flight Obs.Flight.create)
      ?lineage_log:(on o.lineage (Obs.Lineage.create ~label))
      ()
  in
  let verdict = Case.run ~obs case in
  let sink = Obs.Bus.sink obs and monitor = Obs.Bus.monitor obs in
  let artifact on kind render = if on then [ (kind, render ()) ] else [] in
  {
    verdict;
    violations = Obs.Monitor.n_violations monitor;
    observed = Obs.Monitor.n_observed monitor;
    finished = finished_of obs;
    artifacts =
      List.concat
        [
          artifact o.sink "trace" (fun () -> Obs.Trace.to_json sink);
          artifact o.sink "metrics" (fun () -> Obs.Metrics.to_csv sink);
          artifact o.profile "profile" (fun () ->
              Obs.Profile.to_json (Obs.Bus.profile obs));
          artifact o.flight
            (if o.sink then "flight (with sink)" else "flight")
            (fun () -> Obs.Flight.to_json (Obs.Bus.flight_ring obs));
          artifact o.lineage "lineage" (fun () ->
              Obs.Lineage.to_jsonl (Obs.Bus.lineage_log obs));
        ];
  }

(* The result with what the sink and the lineage recorder add taken
   out: ticker events and the heap traffic they cause, and the lineage
   digest. *)
let without_observers (r : Stats.result) =
  {
    r with
    Stats.r_events = { r.Stats.r_events with Stats.ev_tickers = 0 };
    r_engstat = Obs.Engstat.zero;
    r_lineage = Stats.no_lineage;
  }

(* One golden line per (system, case, artifact) of the [all] cell. *)
let golden_lines sys outcomes =
  List.concat
    (List.mapi
       (fun i out ->
         List.map
           (fun (kind, bytes) ->
             Printf.sprintf "%s %d %s %s" sys i kind
               (Digest.to_hex (Digest.string bytes)))
           out.artifacts
         @ [ Printf.sprintf "%s %d monitor-observed %d" sys i out.observed ])
       outcomes)

let check_golden sys outcomes =
  Test_harness.check_golden ~file:"golden_observers.txt"
    ~select:(String.starts_with ~prefix:(sys ^ " "))
    ~actual_file:(Printf.sprintf "golden_observers-%s.actual" sys)
    (golden_lines sys outcomes)

let check_finished cell case o (spans, records) =
  if o.sink && o.lineage && spans <> records then
    Alcotest.failf
      "cell %s, case %s: %d txn spans but %d finished lineage records, or \
       their versions differ"
      cell (Case.label case) (List.length spans) (List.length records)

type observed =
  | Verdict of (Stats.result, Explore.Audit.violation) result
  | Bytes of string

let check_system system () =
  let sys = Harness.Run.system_name system in
  let cases = cases system in
  let pool = Orchestrate.Pool.create ~jobs:2 in
  let cells =
    Fun.protect
      ~finally:(fun () -> Orchestrate.Pool.shutdown pool)
      (fun () ->
        List.concat_map
          (fun (name, o) ->
            [
              (Printf.sprintf "%s/serial/%s" sys name, o,
               List.map (run_case o) cases);
              (Printf.sprintf "%s/jobs2/%s" sys name, o,
               Orchestrate.Pool.map pool (run_case o) cases);
            ])
          observer_sets)
  in
  (* The first cell to produce a comparison key for a case is its
     reference; [compare] rather than [=] so a NaN equals itself. *)
  let refs = Hashtbl.create 64 in
  let agree cell case i key v =
    match Hashtbl.find_opt refs (key, i) with
    | None -> Hashtbl.add refs (key, i) (cell, v)
    | Some (ref_cell, v0) ->
      if compare v v0 <> 0 then
        Alcotest.failf "cell %s, case %s: %s differs from cell %s" cell
          (Case.label case) key ref_cell
  in
  List.iter
    (fun (cell, o, outcomes) ->
      List.iteri
        (fun i (case, out) ->
          if o.monitor && out.violations > 0 then
            Alcotest.failf "cell %s, case %s: %d monitor violations" cell
              (Case.label case) out.violations;
          check_finished cell case o out.finished;
          agree cell case i
            (Printf.sprintf "result (sink=%b, lineage=%b)" o.sink o.lineage)
            (Verdict out.verdict);
          agree cell case i "result without observer additions"
            (Verdict (Result.map without_observers out.verdict));
          List.iter
            (fun (kind, bytes) -> agree cell case i kind (Bytes bytes))
            out.artifacts)
        (List.combine cases outcomes))
    cells;
  List.iter
    (fun (cell, _, outcomes) ->
      if cell = sys ^ "/serial/all" then check_golden sys outcomes)
    cells

(* The matrix's cases draw no user aborts (ycsb-small never aborts on
   its own), so TPC-C, whose New-Order rolls back 1 % of the time, checks
   that a user abort records its [txn] span like any other finish. *)
let check_user_abort_spans system () =
  let case =
    { Case.default with
      Case.c_system = system; c_workload = "tpcc-small"; c_seed = 3 }
  in
  let sink = Obs.Sink.create ~seed:case.c_seed in
  let obs =
    Obs.Bus.create ~sink ~lineage_log:(Obs.Lineage.create ~label:(Case.label case) ()) ()
  in
  ignore (Case.run ~obs case);
  let user_aborts =
    List.length
      (List.filter
         (fun (e : Obs.Sink.event) ->
           e.ev_name = "abort"
           && List.assoc_opt "reason" e.ev_args = Some (Obs.Sink.S "user-abort"))
         (Obs.Sink.events sink))
  in
  Alcotest.(check bool) "the case has a user abort" true (user_aborts > 0);
  let spans, records = finished_of obs in
  Alcotest.(check (list string)) "one txn span per finished lineage record" records
    spans

let suites =
  [
    ( "perturb",
      List.map
        (fun system ->
          Alcotest.test_case
            (Harness.Run.system_name system ^ " matrix")
            `Quick (check_system system))
        Harness.Run.all_systems
      @ List.map
          (fun system ->
            Alcotest.test_case
              (Harness.Run.system_name system ^ " user-abort spans")
              `Quick (check_user_abort_spans system))
          [ Harness.Run.Tapir; Harness.Run.Spanner ] );
  ]
