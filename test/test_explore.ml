(* Tests for the exploration subsystem: determinism of audited runs
   (the property the whole harness rests on), schedule generation and
   replay, the sweep loop, and the shrinking strategy (exercised with
   synthetic failure predicates so no broken protocol needs to live in
   the tree). *)

let small_exp sys =
  {
    Harness.Run.default_exp with
    e_system = sys;
    e_clients = 6;
    e_cores = 2;
    e_warmup_us = 30_000;
    e_measure_us = 120_000;
    e_workload =
      Harness.Run.Ycsb
        {
          Workload.Ycsb.n_keys = 200;
          theta = 0.9;
          ops_per_txn = 4;
          read_pct = 50;
        };
    e_seed = 7;
  }

(* Same seed => structurally identical result AND identical recorded
   history, for every system.  This is the determinism contract the
   explorer's replayability (and the shrinker's oracle re-runs) depend
   on. *)

let test_audited_run_deterministic () =
  List.iter
    (fun sys ->
      let r1, h1 = Harness.Run.run_exp_audited (small_exp sys) in
      let r2, h2 = Harness.Run.run_exp_audited (small_exp sys) in
      let name = Harness.Run.system_name sys in
      if r1 <> r2 then
        Alcotest.failf "%s: results differ across identical runs" name;
      if List.length h1 <> List.length h2 then
        Alcotest.failf "%s: history lengths differ (%d vs %d)" name (List.length h1)
          (List.length h2);
      if h1 <> h2 then Alcotest.failf "%s: recorded histories differ" name;
      if h1 = [] then Alcotest.failf "%s: recorded no transactions" name)
    Harness.Run.all_systems

(* The recorded history of a fault-free run must satisfy the full
   audit — this is the "histories are checkable" half of the tentpole,
   independent of the sweep driver. *)
let test_audited_run_serializable () =
  List.iter
    (fun sys ->
      let r, h = Harness.Run.run_exp_audited (small_exp sys) in
      match Explore.Audit.check ~expect_progress:true h r with
      | Ok () -> ()
      | Error v ->
        Alcotest.failf "%s: audit violation: %s" (Harness.Run.system_name sys)
          (Explore.Audit.violation_to_string v))
    Harness.Run.all_systems

let test_schedule_generate_deterministic () =
  let gen seed =
    let rng = Sim.Rng.create seed in
    Explore.Schedule.generate ~kill_restart:true ~rng ~horizon_us:250_000
      ~n_replicas:4 ~episodes:3 ()
  in
  Alcotest.(check string) "same seed, same schedule"
    (Explore.Schedule.to_string (gen 42))
    (Explore.Schedule.to_string (gen 42));
  Alcotest.(check bool) "different seeds differ" true
    (Explore.Schedule.to_string (gen 42) <> Explore.Schedule.to_string (gen 43))

let test_schedule_generate_bracketed () =
  (* Every episode is closed: equal numbers of crash/recover,
     isolate/heal, and kill/restart, and the last loss/delay events
     clear their knob, so the run always ends fault-free. *)
  for seed = 1 to 20 do
    let rng = Sim.Rng.create seed in
    let sched =
      Explore.Schedule.generate ~kill_restart:true ~rng ~horizon_us:250_000
        ~n_replicas:4 ~episodes:4 ()
    in
    let crash = ref 0 and recover = ref 0 and isolate = ref 0 and heal = ref 0 in
    let kill = ref 0 and restart = ref 0 in
    let last_loss = ref 0. and last_delay = ref 0 in
    List.iter
      (fun { Explore.Schedule.at_us; ev } ->
        Alcotest.(check bool) "event inside horizon" true
          (0 <= at_us && at_us < 250_000);
        match ev with
        | Explore.Schedule.Crash _ -> incr crash
        | Recover _ -> incr recover
        | Kill _ -> incr kill
        | Restart _ -> incr restart
        | Isolate _ -> incr isolate
        | Heal_all -> incr heal
        | Partition _ | Heal _ ->
          Alcotest.fail "partition generated without partitions:true"
        | Loss p -> last_loss := p
        | Delay d -> last_delay := d)
      (Explore.Schedule.events sched);
    Alcotest.(check int) "crashes recovered" !crash !recover;
    Alcotest.(check int) "isolations healed" !isolate !heal;
    Alcotest.(check int) "kills restarted" !kill !restart;
    Alcotest.(check bool) "kill episode present" true (!kill >= 1);
    Alcotest.(check (float 0.)) "loss cleared" 0. !last_loss;
    Alcotest.(check int) "delay cleared" 0 !last_delay
  done;
  (* With kill_restart off, no amnesia events appear at all. *)
  for seed = 1 to 10 do
    let rng = Sim.Rng.create seed in
    let sched =
      Explore.Schedule.generate ~kill_restart:false ~rng ~horizon_us:250_000
        ~n_replicas:4 ~episodes:4 ()
    in
    List.iter
      (fun { Explore.Schedule.ev; _ } ->
        match ev with
        | Explore.Schedule.Kill _ | Restart _ ->
          Alcotest.fail "kill/restart generated with kill_restart:false"
        | _ -> ())
      (Explore.Schedule.events sched)
  done

(* Amnesia windows never overlap: at most one replica is dead-or-
   recovering at any instant, which keeps every system inside its
   f-threshold for any group layout. *)
let test_schedule_kill_windows_disjoint () =
  for seed = 1 to 30 do
    let rng = Sim.Rng.create (100 + seed) in
    let sched =
      Explore.Schedule.generate ~kill_restart:true ~rng ~horizon_us:250_000
        ~n_replicas:4 ~episodes:6 ()
    in
    let depth = ref 0 in
    List.iter
      (fun { Explore.Schedule.ev; _ } ->
        match ev with
        | Explore.Schedule.Kill _ ->
          incr depth;
          Alcotest.(check bool) "at most one amnesiac at a time" true (!depth <= 1)
        | Explore.Schedule.Restart _ -> decr depth
        | _ -> ())
      (Explore.Schedule.events sched);
    Alcotest.(check int) "every kill closed" 0 !depth
  done

let test_schedule_of_list_sorts () =
  let sched =
    Explore.Schedule.of_list
      [
        { Explore.Schedule.at_us = 500; ev = Explore.Schedule.Heal_all };
        { Explore.Schedule.at_us = 100; ev = Explore.Schedule.Crash 0 };
        { Explore.Schedule.at_us = 300; ev = Explore.Schedule.Recover 0 };
      ]
  in
  Alcotest.(check (list int)) "sorted by time" [ 100; 300; 500 ]
    (List.map (fun t -> t.Explore.Schedule.at_us) (Explore.Schedule.events sched))

(* A run under a generated fault schedule is still deterministic and
   still audits clean — faults may slow the systems down but must never
   break serializability. *)
let test_faulted_run_deterministic_and_safe () =
  let case sys =
    {
      Explore.Case.default with
      c_system = sys;
      c_seed = 3;
      c_clients = 6;
      c_measure_us = 150_000;
      c_schedule =
        Explore.Sweep.schedule_for Explore.Sweep.default_config ~seed:3 ~index:1;
    }
  in
  List.iter
    (fun sys ->
      let name = Harness.Run.system_name sys in
      match (Explore.Case.run (case sys), Explore.Case.run (case sys)) with
      | Ok r1, Ok r2 ->
        if r1 <> r2 then Alcotest.failf "%s: faulted runs differ" name
      | Error v, _ | _, Error v ->
        Alcotest.failf "%s: audit violation under faults: %s" name
          (Explore.Audit.violation_to_string v))
    Harness.Run.all_systems

let test_sweep_smoke_passes () =
  let cfg =
    {
      Explore.Sweep.smoke_config with
      systems = [ Harness.Run.Morty; Harness.Run.Tapir ];
      seeds = [ 1 ];
      measure_us = 120_000;
    }
  in
  let s1 = Explore.Sweep.run cfg in
  let s2 = Explore.Sweep.run cfg in
  (* 2 systems x 1 workload x 1 seed x (1 fault-free + 1 scheduled) *)
  Alcotest.(check int) "runs" 4 s1.Explore.Sweep.s_runs;
  Alcotest.(check int) "all passed" 4 s1.Explore.Sweep.s_passed;
  Alcotest.(check bool) "no failures" true (s1.Explore.Sweep.s_failures = []);
  Alcotest.(check int) "sweep deterministic (committed)"
    s1.Explore.Sweep.s_committed s2.Explore.Sweep.s_committed;
  Alcotest.(check int) "sweep deterministic (aborted)" s1.Explore.Sweep.s_aborted
    s2.Explore.Sweep.s_aborted

(* --- Shrinker strategy, tested with synthetic oracles ------------- *)

let viol = Explore.Audit.No_progress

let sched_with_events n =
  Explore.Schedule.of_list
    (List.init n (fun i ->
         {
           Explore.Schedule.at_us = 10_000 * (i + 1);
           ev =
             (if i mod 2 = 0 then Explore.Schedule.Crash (i / 2)
              else Explore.Schedule.Recover (i / 2));
         }))

let case_with_events n =
  { Explore.Case.default with c_seed = 37; c_schedule = sched_with_events n }

(* Oracle: fails iff the schedule still contains [Crash 1].  The
   shrinker must strip every other event. *)
let test_shrink_drops_irrelevant_events () =
  let fails c =
    if
      List.exists
        (fun t -> t.Explore.Schedule.ev = Explore.Schedule.Crash 1)
        (Explore.Schedule.events c.Explore.Case.c_schedule)
    then Some viol
    else None
  in
  let o = Explore.Shrink.minimize ~fails (case_with_events 6) viol in
  let evs = Explore.Schedule.events o.Explore.Shrink.s_case.Explore.Case.c_schedule in
  Alcotest.(check int) "only the culprit event survives" 1 (List.length evs);
  Alcotest.(check bool) "it is Crash 1" true
    ((List.hd evs).Explore.Schedule.ev = Explore.Schedule.Crash 1)

(* Oracle: fails for any case (violation independent of the inputs).
   The shrinker must drive every dimension to its floor. *)
let test_shrink_reaches_floors () =
  let fails _ = Some viol in
  let o = Explore.Shrink.minimize ~fails (case_with_events 4) viol in
  let c = o.Explore.Shrink.s_case in
  Alcotest.(check bool) "schedule emptied" true
    (Explore.Schedule.is_empty c.Explore.Case.c_schedule);
  Alcotest.(check int) "clients at floor" 2 c.Explore.Case.c_clients;
  Alcotest.(check int) "measure window at floor" 50_000 c.Explore.Case.c_measure_us;
  Alcotest.(check int) "seed bisected to 1" 1 c.Explore.Case.c_seed

(* Oracle: only the original case fails.  The shrinker must return it
   unchanged rather than "minimize" into a passing case. *)
let test_shrink_never_returns_passing_case () =
  let original = case_with_events 3 in
  let fails c = if c = original then Some viol else None in
  let o = Explore.Shrink.minimize ~fails original viol in
  Alcotest.(check bool) "shrunk case still fails" true
    (fails o.Explore.Shrink.s_case <> None)

let test_shrink_respects_budget () =
  let calls = ref 0 in
  let fails _ =
    incr calls;
    Some viol
  in
  let _ = Explore.Shrink.minimize ~max_runs:5 ~fails (case_with_events 8) viol in
  Alcotest.(check bool) "oracle calls bounded" true (!calls <= 5)

let test_reproducer_mentions_case () =
  let fails _ = Some viol in
  let o = Explore.Shrink.minimize ~fails (case_with_events 2) viol in
  let s = Explore.Shrink.reproducer o in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prints a runnable case" true
    (contains "Explore.Case.run" && contains "Explore.Case.default")

let suites =
  [
    ( "explore.determinism",
      [
        Alcotest.test_case "audited runs replay identically" `Quick
          test_audited_run_deterministic;
        Alcotest.test_case "fault-free histories audit clean" `Quick
          test_audited_run_serializable;
        Alcotest.test_case "faulted runs deterministic and safe" `Slow
          test_faulted_run_deterministic_and_safe;
      ] );
    ( "explore.schedule",
      [
        Alcotest.test_case "generation deterministic" `Quick
          test_schedule_generate_deterministic;
        Alcotest.test_case "episodes bracketed" `Quick test_schedule_generate_bracketed;
        Alcotest.test_case "kill windows disjoint" `Quick
          test_schedule_kill_windows_disjoint;
        Alcotest.test_case "of_list sorts" `Quick test_schedule_of_list_sorts;
      ] );
    ( "explore.sweep",
      [ Alcotest.test_case "small sweep passes, twice" `Slow test_sweep_smoke_passes ] );
    ( "explore.shrink",
      [
        Alcotest.test_case "drops irrelevant events" `Quick
          test_shrink_drops_irrelevant_events;
        Alcotest.test_case "reaches floors" `Quick test_shrink_reaches_floors;
        Alcotest.test_case "never returns a passing case" `Quick
          test_shrink_never_returns_passing_case;
        Alcotest.test_case "respects run budget" `Quick test_shrink_respects_budget;
        Alcotest.test_case "reproducer is paste-ready" `Quick
          test_reproducer_mentions_case;
      ] );
  ]
