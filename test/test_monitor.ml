(* Online invariant monitors, the flight recorder, and post-mortem
   bundles: every monitor provably fires on a deliberately broken
   transition, clean runs of all four systems stay violation-free,
   attaching monitors perturbs nothing, and bundles come out complete
   and parseable. *)

module M = Obs.Monitor

let ts = 1_000

(* Feed [trs] to a fresh monitor and return it. *)
let fed ?max_records trs =
  let mon = M.create ?max_records () in
  List.iter (fun tr -> M.observe mon ~ts tr) trs;
  mon

(* Assert exactly the invariant [name] fired (at least once, and
   nothing else fired). *)
let check_fires name trs =
  let mon = fed trs in
  (match M.violations mon with
  | [] -> Alcotest.failf "%s: no violation recorded" name
  | vs ->
    List.iter
      (fun (v : M.violation) ->
        Alcotest.(check string) (name ^ ": invariant name") name v.M.vi_invariant)
      vs)

let check_clean trs =
  let mon = fed trs in
  match M.violations mon with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "unexpected violation: %s" (Fmt.str "%a" M.pp_violation v)

(* --- each monitor fires on a broken transition -------------------------- *)

let test_watermark_monotone () =
  check_fires "watermark-monotone"
    [ M.Watermark { replica = "r0"; wm = (10, 1) };
      M.Watermark { replica = "r0"; wm = (5, 0) } ];
  (* equal and advancing watermarks are lawful; replicas are tracked
     independently *)
  check_clean
    [ M.Watermark { replica = "r0"; wm = (10, 1) };
      M.Watermark { replica = "r0"; wm = (10, 1) };
      M.Watermark { replica = "r0"; wm = (12, 0) };
      M.Watermark { replica = "r1"; wm = (3, 0) } ]

let test_truncation_safety () =
  check_fires "truncation-safety"
    [ M.Trunc_read
        { replica = "r1"; key = "k"; served = (5, 0); newest = (9, 2) } ];
  check_clean
    [ M.Trunc_read
        { replica = "r1"; key = "k"; served = (9, 2); newest = (9, 2) } ]

let test_records_bounded () =
  let mon = fed ~max_records:2 [ M.Record_count { replica = "r0"; count = 3 } ] in
  (match M.violations mon with
  | [ v ] ->
    Alcotest.(check string) "invariant" "records-bounded" v.M.vi_invariant
  | _ -> Alcotest.fail "records-bounded: expected exactly one violation");
  check_clean [ M.Record_count { replica = "r0"; count = 100 } ]

let test_fastpath_votes () =
  (* too few commit votes for the claimed quorum *)
  check_fires "fastpath-votes"
    [ M.Fast_path { ver = (7, 1); quorum = 3; votes = [ "commit"; "commit" ] } ];
  (* enough commits but a dissenting vote in the set *)
  check_fires "fastpath-votes"
    [ M.Fast_path
        { ver = (7, 1); quorum = 2; votes = [ "commit"; "abort"; "commit" ] } ];
  check_clean
    [ M.Fast_path
        { ver = (7, 1); quorum = 3; votes = [ "commit"; "commit"; "commit" ] } ]

let test_mvtso_read_order () =
  (* served at the reader's own timestamp: not strictly below *)
  check_fires "mvtso-read-order"
    [ M.Read_serve
        { replica = "r2"; key = "k"; reader = (5, 1); served = (5, 1) } ];
  check_fires "mvtso-read-order"
    [ M.Read_serve
        { replica = "r2"; key = "k"; reader = (5, 1); served = (8, 0) } ];
  check_clean
    [ M.Read_serve
        { replica = "r2"; key = "k"; reader = (5, 1); served = (4, 9) } ]

let test_store_version_monotone () =
  check_fires "store-version-monotone"
    [ M.Commit_install { replica = "r0"; key = "k"; ver = (10, 1) };
      M.Gc_survivor { replica = "r0"; key = "k"; newest = Some (5, 0); wm = (8, 0) } ];
  (* dropping the key entirely is also a loss *)
  check_fires "store-version-monotone"
    [ M.Commit_install { replica = "r0"; key = "k"; ver = (10, 1) };
      M.Gc_survivor { replica = "r0"; key = "k"; newest = None; wm = (8, 0) } ];
  (* versions order on the id when the timestamps tie *)
  check_fires "store-version-monotone"
    [ M.Commit_install { replica = "r0"; key = "k"; ver = (10, 1) };
      M.Commit_install { replica = "r0"; key = "k"; ver = (10, 0) };
      M.Gc_survivor { replica = "r0"; key = "k"; newest = Some (10, 0); wm = (8, 0) } ];
  check_clean
    [ M.Commit_install { replica = "r0"; key = "k"; ver = (10, 1) };
      M.Gc_survivor { replica = "r0"; key = "k"; newest = Some (10, 1); wm = (8, 0) } ];
  (* each replica and each key is tracked on its own *)
  check_clean
    [ M.Commit_install { replica = "r0"; key = "k"; ver = (10, 1) };
      M.Commit_install { replica = "r0"; key = "j"; ver = (3, 0) };
      M.Gc_survivor { replica = "r1"; key = "k"; newest = None; wm = (8, 0) };
      M.Gc_survivor { replica = "r0"; key = "j"; newest = Some (3, 0); wm = (8, 0) } ]

let test_lock_exclusion () =
  (* write lock granted but the table says someone else holds the write *)
  check_fires "lock-exclusion"
    [ M.Lock_grant
        { replica = "g0r0"; key = "k"; txn = (3, 0); mode = M.Write;
          writer = Some (9, 9); readers = [] } ];
  (* write lock granted while a foreign reader holds the key *)
  check_fires "lock-exclusion"
    [ M.Lock_grant
        { replica = "g0r0"; key = "k"; txn = (3, 0); mode = M.Write;
          writer = Some (3, 0); readers = [ (2, 0) ] } ];
  (* read lock granted under a foreign writer *)
  check_fires "lock-exclusion"
    [ M.Lock_grant
        { replica = "g0r0"; key = "k"; txn = (3, 0); mode = M.Read;
          writer = Some (9, 9); readers = [ (3, 0) ] } ];
  (* read lock granted but the grantee is missing from the holder set *)
  check_fires "lock-exclusion"
    [ M.Lock_grant
        { replica = "g0r0"; key = "k"; txn = (3, 0); mode = M.Read;
          writer = None; readers = [ (2, 0) ] } ];
  check_clean
    [ M.Lock_grant
        { replica = "g0r0"; key = "k"; txn = (3, 0); mode = M.Write;
          writer = Some (3, 0); readers = [] };
      M.Lock_grant
        { replica = "g0r0"; key = "k"; txn = (4, 0); mode = M.Read;
          writer = None; readers = [ (4, 0); (5, 0) ] };
      (* a reader upgrading to write still holds its own read lock *)
      M.Lock_grant
        { replica = "g0r0"; key = "k"; txn = (4, 0); mode = M.Write;
          writer = Some (4, 0); readers = [ (4, 0) ] } ]

let test_ir_op_class () =
  check_fires "ir-op-class"
    [ M.Ir_op { replica = "g0r1"; op = "prepare"; consensus = false } ];
  check_fires "ir-op-class"
    [ M.Ir_op { replica = "g0r1"; op = "commit"; consensus = true } ];
  check_fires "ir-op-class"
    [ M.Ir_op { replica = "g0r1"; op = "gossip"; consensus = true } ];
  check_clean
    [ M.Ir_op { replica = "g0r1"; op = "prepare"; consensus = true };
      M.Ir_op { replica = "g0r1"; op = "finalize"; consensus = true };
      M.Ir_op { replica = "g0r1"; op = "commit"; consensus = false };
      M.Ir_op { replica = "g0r1"; op = "abort"; consensus = false } ]

(* --- kill resets per-replica tracking ----------------------------------- *)

let test_note_kill_resets () =
  let mon = M.create () in
  M.observe mon ~ts (M.Watermark { replica = "r0"; wm = (10, 1) });
  M.observe mon ~ts (M.Commit_install { replica = "r0"; key = "k"; ver = (10, 1) });
  M.note_kill mon ~ts:2_000 ~replica:"r0";
  (* the restarted incarnation lawfully trails its predecessor *)
  M.observe mon ~ts:3_000 (M.Watermark { replica = "r0"; wm = (2, 0) });
  M.observe mon ~ts:3_000
    (M.Gc_survivor { replica = "r0"; key = "k"; newest = None; wm = (1, 0) });
  Alcotest.(check int) "no violations after kill reset" 0 (M.n_violations mon);
  (* but an untouched replica keeps its history *)
  M.observe mon ~ts (M.Watermark { replica = "r1"; wm = (10, 1) });
  M.observe mon ~ts (M.Commit_install { replica = "r1"; key = "k"; ver = (10, 1) });
  M.note_kill mon ~ts:2_000 ~replica:"r0";
  M.observe mon ~ts:3_000 (M.Watermark { replica = "r1"; wm = (2, 0) });
  Alcotest.(check int) "r1 regression still caught" 1 (M.n_violations mon);
  M.observe mon ~ts:3_000
    (M.Gc_survivor { replica = "r1"; key = "k"; newest = None; wm = (1, 0) });
  Alcotest.(check int) "r1 lost write still caught" 2 (M.n_violations mon);
  (match M.incidents mon with
  | [ a; b ] ->
    Alcotest.(check string) "incident kind" "kill" a.M.in_kind;
    Alcotest.(check string) "incident kind" "kill" b.M.in_kind
  | l -> Alcotest.failf "expected 2 incidents, got %d" (List.length l));
  Alcotest.(check (option int)) "first incident is the kill" (Some 2_000)
    (M.first_incident_ts mon)

let test_violation_cap () =
  let mon = M.create () in
  for i = 1 to 300 do
    M.observe mon ~ts:i
      (M.Ir_op { replica = "r0"; op = "bogus"; consensus = true })
  done;
  Alcotest.(check int) "all violations counted" 300 (M.n_violations mon);
  Alcotest.(check int) "stored list capped" 256
    (List.length (M.violations mon));
  Alcotest.(check int) "all transitions observed" 300 (M.n_observed mon)

let test_null_monitor () =
  let mon = M.null () in
  Alcotest.(check bool) "disabled" false (M.enabled mon);
  M.observe mon ~ts (M.Watermark { replica = "r0"; wm = (10, 1) });
  M.observe mon ~ts (M.Watermark { replica = "r0"; wm = (1, 0) });
  M.note_kill mon ~ts ~replica:"r0";
  Alcotest.(check int) "observes nothing" 0 (M.n_observed mon);
  Alcotest.(check int) "no violations" 0 (M.n_violations mon);
  Alcotest.(check (list pass)) "no incidents" [] (M.incidents mon)

(* --- flight recorder ---------------------------------------------------- *)

let test_flight_ring () =
  let fl = Obs.Flight.create ~capacity:4 () in
  let engine_ev i =
    Obs.Flight.Engine_ev { fl_ts = i; kind = Printf.sprintf "n%d" i }
  in
  for i = 1 to 10 do
    Obs.Flight.record fl (engine_ev i)
  done;
  Alcotest.(check int) "total counts everything" 10 (Obs.Flight.total fl);
  let entries = Obs.Flight.entries fl in
  Alcotest.(check int) "ring bounded" 4 (List.length entries);
  let kinds =
    List.map
      (function
        | Obs.Flight.Engine_ev { kind; _ } -> kind
        | _ -> Alcotest.fail "expected Engine_ev")
      entries
  in
  Alcotest.(check (list string)) "oldest to newest" [ "n7"; "n8"; "n9"; "n10" ]
    kinds;
  (try Test_obs.validate_json (Obs.Flight.to_json fl)
   with Test_obs.Bad_json m -> Alcotest.failf "flight JSON invalid: %s" m);
  let null = Obs.Flight.null () in
  Obs.Flight.record null (engine_ev 1);
  Alcotest.(check int) "null records nothing" 0 (Obs.Flight.total null)

(* --- clean audited runs stay violation-free ----------------------------- *)

let contended_exp system seed =
  {
    Harness.Run.default_exp with
    e_system = system;
    e_workload =
      Harness.Run.Ycsb
        { Workload.Ycsb.n_keys = 50; theta = 0.9; ops_per_txn = 4; read_pct = 50 };
    e_clients = 8;
    e_cores = 2;
    e_warmup_us = 20_000;
    e_measure_us = 100_000;
    e_seed = seed;
    e_label = "monitor-test";
  }

let test_clean_runs () =
  List.iter
    (fun system ->
      let mon = M.create () in
      let r =
        Harness.Run.run_exp ~obs:(Obs.Bus.create ~monitor:mon ())
          (contended_exp system 7)
      in
      let name = Harness.Run.system_name system in
      Alcotest.(check bool) (name ^ ": commits") true
        (r.Harness.Stats.r_committed > 0);
      Alcotest.(check bool) (name ^ ": transitions observed") true
        (M.n_observed mon > 0);
      (match M.violations mon with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "%s: monitor fired on a clean run: %s" name
          (Fmt.str "%a" M.pp_violation v));
      (* the harness registered the cluster's introspection source *)
      let views = M.views mon in
      Alcotest.(check bool) (name ^ ": state views") true (views <> []);
      List.iter
        (fun (v : M.state_view) ->
          if v.M.v_records < 0 || v.M.v_store_keys < 0 || v.M.v_store_versions < 0
          then Alcotest.failf "%s: negative gauge in %s" name v.M.v_replica)
        views)
    Harness.Run.all_systems

(* --- zero perturbation -------------------------------------------------- *)

(* The golden double-run property, extended: a run with monitors and
   flight recorder attached is byte-identical — in results, trace JSON
   and metrics CSV — to the same seed without them. *)
let test_monitor_zero_perturbation () =
  let e = contended_exp Harness.Run.Morty 5 in
  let obs1 = Obs.Sink.create ~seed:5 in
  let plain = Harness.Run.run_exp ~obs:(Obs.Bus.create ~sink:obs1 ()) e in
  let obs2 = Obs.Sink.create ~seed:5 in
  let mon = M.create () in
  let flight = Obs.Flight.create () in
  let monitored =
    Harness.Run.run_exp
      ~obs:(Obs.Bus.create ~sink:obs2 ~monitor:mon ~flight_ring:flight ())
      e
  in
  Alcotest.(check int) "committed identical" plain.Harness.Stats.r_committed
    monitored.Harness.Stats.r_committed;
  Alcotest.(check int) "aborted identical" plain.Harness.Stats.r_aborted
    monitored.Harness.Stats.r_aborted;
  Alcotest.(check (float 1e-9)) "p99 identical"
    plain.Harness.Stats.r_p99_latency_ms monitored.Harness.Stats.r_p99_latency_ms;
  Alcotest.(check string) "trace JSON byte-identical" (Obs.Trace.to_json obs1)
    (Obs.Trace.to_json obs2);
  Alcotest.(check string) "metrics CSV byte-identical"
    (Obs.Metrics.to_csv obs1) (Obs.Metrics.to_csv obs2);
  Alcotest.(check int) "monitored run observed transitions" 0
    (M.n_violations mon);
  Alcotest.(check bool) "flight ring captured traffic" true
    (Obs.Flight.total flight > 0)

(* --- post-mortem bundles ------------------------------------------------ *)

let bundle_complete name bundle =
  let files = Obs.Postmortem.files bundle in
  List.iter
    (fun f ->
      if not (List.mem f files) then
        Alcotest.failf "%s: bundle missing %s (has: %s)" name f
          (String.concat ", " files))
    [ "manifest.json"; "violations.json"; "snapshots.json"; "flight.json";
      "trace.json"; "profile.json"; "metrics.csv" ];
  List.iter
    (fun (fname, contents) ->
      if Filename.check_suffix fname ".json" then
        try Test_obs.validate_json contents
        with Test_obs.Bad_json m ->
          Alcotest.failf "%s: %s invalid JSON: %s" name fname m)
    bundle

let run_bundled ?faults e =
  let obs =
    Obs.Bus.create ~sink:(Obs.Sink.create ~seed:e.Harness.Run.e_seed)
      ~profile:(Obs.Profile.create ~label:e.Harness.Run.e_label ())
      ~monitor:(M.create ()) ~flight_ring:(Obs.Flight.create ()) ()
  in
  ignore (Harness.Run.run_exp ?faults ~obs e);
  (obs, Obs.Bus.monitor obs, Obs.Bus.flight_ring obs)

let test_bundle_forced_violation () =
  let obs, mon, flight = run_bundled (contended_exp Harness.Run.Morty 9) in
  (* force a violation after the clean run so the bundle carries real
     snapshots and ring contents alongside it *)
  M.observe mon ~ts:42 (M.Watermark { replica = "r0"; wm = (99, 0) });
  M.observe mon ~ts:43 (M.Watermark { replica = "r0"; wm = (1, 0) });
  Alcotest.(check int) "violation forced" 1 (M.n_violations mon);
  let bundle =
    Obs.Postmortem.make ~reason:"monitor-violation" ~detail:"forced"
      ~label:"bundle-test" ~seed:9 ~obs ()
  in
  bundle_complete "forced" bundle;
  Alcotest.(check bool) "snapshots non-empty" true (M.views mon <> []);
  Alcotest.(check bool) "flight ring non-empty" true
    (Obs.Flight.entries flight <> [])

let test_bundle_on_kill () =
  let kill_ts = 60_000 in
  let faults (ops : Harness.Run.cluster_ops) =
    ignore
      (Sim.Engine.schedule_at ops.Harness.Run.co_engine ~at:kill_ts (fun () ->
           ops.Harness.Run.co_kill 2))
  in
  let obs, mon, _ = run_bundled ~faults (contended_exp Harness.Run.Morty 11) in
  Alcotest.(check int) "kill run stays violation-free" 0 (M.n_violations mon);
  (match M.incidents mon with
  | [ i ] ->
    Alcotest.(check string) "kind" "kill" i.M.in_kind;
    Alcotest.(check int) "at the kill time" kill_ts i.M.in_ts
  | l -> Alcotest.failf "expected 1 incident, got %d" (List.length l));
  Alcotest.(check (option int)) "first incident" (Some kill_ts)
    (M.first_incident_ts mon);
  let bundle =
    Obs.Postmortem.make ~reason:"replica-kill" ~detail:"kill r2"
      ~label:"bundle-kill" ~seed:11 ~obs ()
  in
  bundle_complete "kill" bundle

(* The explorer surface: a monitor violation is an audit failure, so
   the shrinker minimizes it and the sweep ships a complete bundle. *)
let test_explore_monitor_failure () =
  let cfg =
    {
      Explore.Sweep.smoke_config with
      Explore.Sweep.systems = [ Harness.Run.Morty ];
      seeds = [ 3 ];
      schedules_per_seed = 0;
      monitors = true;
    }
  in
  let summary = Explore.Sweep.run cfg in
  Alcotest.(check int) "clean sweep has no failures" 0
    (List.length summary.Explore.Sweep.s_failures);
  (* the monitor-violation audit variant renders with its evidence *)
  let v =
    Explore.Audit.Monitor_violation
      { M.vi_invariant = "watermark-monotone"; vi_ts = 7; vi_where = "r0";
        vi_detail = "watermark regressed 9.0 -> 1.0" }
  in
  let s = Explore.Audit.violation_to_string v in
  let contains sub =
    let ls = String.length sub and ln = String.length s in
    let rec go i = i + ls <= ln && (String.sub s i ls = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "names the invariant" true
    (contains "watermark-monotone")

(* --- metrics final partial window --------------------------------------- *)

let last_sample_ts csv =
  match List.rev (String.split_on_char '\n' (String.trim csv)) with
  | last :: _ -> (
    match String.split_on_char ',' last with
    | ts :: _ -> int_of_string ts
    | [] -> Alcotest.fail "empty CSV row")
  | [] -> Alcotest.fail "empty CSV"

let test_metrics_final_window () =
  (* horizon 125 ms is not a multiple of the 10 ms sampling interval:
     the final partial window must still be sampled, pinned exactly at
     the horizon *)
  let e =
    { (contended_exp Harness.Run.Morty 13) with
      Harness.Run.e_warmup_us = 20_000;
      e_measure_us = 105_000 }
  in
  let obs = Obs.Sink.create ~seed:13 in
  ignore (Harness.Run.run_exp ~obs:(Obs.Bus.create ~sink:obs ()) e);
  Alcotest.(check int) "last sample at the exact horizon" 125_000
    (last_sample_ts (Obs.Metrics.to_csv obs));
  (* when the horizon lands on the interval there is no duplicate tail:
     samples stay strictly increasing per replica *)
  let e2 = contended_exp Harness.Run.Morty 13 in
  let obs2 = Obs.Sink.create ~seed:13 in
  ignore (Harness.Run.run_exp ~obs:(Obs.Bus.create ~sink:obs2 ()) e2);
  Alcotest.(check int) "aligned horizon sampled once at the end" 120_000
    (last_sample_ts (Obs.Metrics.to_csv obs2));
  let per_replica = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.Sink.sample) ->
      let prev =
        Option.value (Hashtbl.find_opt per_replica s.Obs.Sink.sm_replica) ~default:(-1)
      in
      if s.Obs.Sink.sm_ts <= prev then
        Alcotest.failf "duplicate/regressing sample at %d for %s"
          s.Obs.Sink.sm_ts s.Obs.Sink.sm_replica;
      Hashtbl.replace per_replica s.Obs.Sink.sm_replica s.Obs.Sink.sm_ts)
    (Obs.Sink.samples obs2)

let suites =
  [
    ( "monitor-fires",
      [
        Alcotest.test_case "watermark-monotone" `Quick test_watermark_monotone;
        Alcotest.test_case "truncation-safety" `Quick test_truncation_safety;
        Alcotest.test_case "records-bounded" `Quick test_records_bounded;
        Alcotest.test_case "fastpath-votes" `Quick test_fastpath_votes;
        Alcotest.test_case "mvtso-read-order" `Quick test_mvtso_read_order;
        Alcotest.test_case "store-version-monotone" `Quick
          test_store_version_monotone;
        Alcotest.test_case "lock-exclusion" `Quick test_lock_exclusion;
        Alcotest.test_case "ir-op-class" `Quick test_ir_op_class;
      ] );
    ( "monitor-lifecycle",
      [
        Alcotest.test_case "kill resets tracking" `Quick test_note_kill_resets;
        Alcotest.test_case "violation storage cap" `Quick test_violation_cap;
        Alcotest.test_case "null monitor" `Quick test_null_monitor;
        Alcotest.test_case "flight ring" `Quick test_flight_ring;
      ] );
    ( "monitor-runs",
      [
        Alcotest.test_case "clean runs, all systems" `Quick test_clean_runs;
        Alcotest.test_case "zero perturbation" `Quick
          test_monitor_zero_perturbation;
      ] );
    ( "postmortem",
      [
        Alcotest.test_case "forced violation bundle" `Quick
          test_bundle_forced_violation;
        Alcotest.test_case "kill bundle" `Quick test_bundle_on_kill;
        Alcotest.test_case "explorer surface" `Quick
          test_explore_monitor_failure;
      ] );
    ( "metrics-window",
      [
        Alcotest.test_case "final partial window pinned" `Quick
          test_metrics_final_window;
      ] );
  ]
