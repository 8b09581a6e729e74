(* Tests for the measurement harness: stats accumulators, result
   derivation, determinism of full experiment runs, and the run-time
   semantics the figures depend on (warm-up trimming, peak finding). *)

let test_stats_counts () =
  let s = Harness.Stats.create () in
  Harness.Stats.record_commit s ~latency_us:1000;
  Harness.Stats.record_commit s ~latency_us:3000;
  Harness.Stats.record_abort s ~reason:Obs.Abort_reason.Validation_fail;
  Alcotest.(check int) "committed" 2 (Harness.Stats.committed s);
  Alcotest.(check int) "aborted" 1 (Harness.Stats.aborted s);
  Alcotest.(check (float 1e-9)) "commit rate" (2. /. 3.) (Harness.Stats.commit_rate s);
  Alcotest.(check (float 1e-9)) "mean" 2000. (Harness.Stats.mean_latency_us s)

let test_stats_percentiles () =
  let s = Harness.Stats.create () in
  for i = 1 to 100 do
    Harness.Stats.record_commit s ~latency_us:(i * 10)
  done;
  Alcotest.(check (float 20.)) "p50" 500. (Harness.Stats.percentile_latency_us s 0.5);
  Alcotest.(check (float 20.)) "p99" 990. (Harness.Stats.percentile_latency_us s 0.99)

let test_stats_empty () =
  let s = Harness.Stats.create () in
  Alcotest.(check (float 1e-9)) "idle commit rate" 1.0 (Harness.Stats.commit_rate s);
  Alcotest.(check (float 1e-9)) "mean 0" 0. (Harness.Stats.mean_latency_us s);
  Alcotest.(check (float 1e-9)) "p99 0" 0. (Harness.Stats.percentile_latency_us s 0.99)

let test_stats_growth () =
  (* The sample array grows transparently past its initial capacity. *)
  let s = Harness.Stats.create () in
  for i = 1 to 5000 do
    Harness.Stats.record_commit s ~latency_us:i
  done;
  Alcotest.(check int) "all recorded" 5000 (Harness.Stats.committed s)

let test_to_result () =
  let s = Harness.Stats.create () in
  Harness.Stats.record_commit s ~latency_us:10_000;
  Harness.Stats.record_commit s ~latency_us:20_000;
  let r =
    Harness.Stats.to_result s ~label:"x" ~duration_us:1_000_000 ~cpu_utilization:0.5
      ~reexecs_per_txn:1.5 ~msgs_per_txn:12.0 ()
  in
  Alcotest.(check (float 1e-9)) "goodput" 2.0 r.Harness.Stats.r_goodput;
  Alcotest.(check (float 1e-9)) "mean ms" 15.0 r.Harness.Stats.r_mean_latency_ms;
  Alcotest.(check (float 1e-9)) "msgs" 12.0 r.Harness.Stats.r_msgs_per_txn;
  (* CSV round-trip sanity: the row has the same number of fields as the
     header. *)
  let fields s = List.length (String.split_on_char ',' s) in
  Alcotest.(check int) "csv fields" (fields Harness.Stats.csv_header)
    (fields (Harness.Stats.to_csv_row r))

let quick_exp sys =
  {
    Harness.Run.default_exp with
    e_system = sys;
    e_clients = 12;
    e_cores = 2;
    e_warmup_us = 100_000;
    e_measure_us = 300_000;
    e_workload = Harness.Run.Retwis { Workload.Retwis.n_keys = 1000; theta = 0.5 };
    e_seed = 9;
  }

let test_run_deterministic () =
  let r1 = Harness.Run.run_exp (quick_exp Harness.Run.Morty) in
  let r2 = Harness.Run.run_exp (quick_exp Harness.Run.Morty) in
  Alcotest.(check int) "same commits" r1.Harness.Stats.r_committed
    r2.Harness.Stats.r_committed;
  Alcotest.(check (float 1e-9)) "same latency" r1.Harness.Stats.r_mean_latency_ms
    r2.Harness.Stats.r_mean_latency_ms

let test_run_seed_sensitivity () =
  let r1 = Harness.Run.run_exp (quick_exp Harness.Run.Morty) in
  let r2 = Harness.Run.run_exp { (quick_exp Harness.Run.Morty) with e_seed = 10 } in
  Alcotest.(check bool) "different seeds differ" true
    (r1.Harness.Stats.r_committed <> r2.Harness.Stats.r_committed)

let test_all_systems_produce_goodput () =
  List.iter
    (fun sys ->
      let r = Harness.Run.run_exp (quick_exp sys) in
      if r.Harness.Stats.r_committed <= 0 then
        Alcotest.failf "%s committed nothing" (Harness.Run.system_name sys))
    Harness.Run.(all_systems @ [ Tapir_nodist ])

let test_find_peak () =
  let r =
    Harness.Run.find_peak
      (fun n -> { (quick_exp Harness.Run.Morty) with e_clients = n })
      ~client_counts:[ 4; 12 ]
  in
  (* More clients at this light load means more goodput. *)
  let r4 = Harness.Run.run_exp { (quick_exp Harness.Run.Morty) with e_clients = 4 } in
  Alcotest.(check bool) "peak >= smallest load" true
    (r.Harness.Stats.r_goodput >= r4.Harness.Stats.r_goodput)

let test_tpcc_exp_runs_on_all_systems () =
  List.iter
    (fun sys ->
      let e =
        {
          (quick_exp sys) with
          e_workload =
            Harness.Run.Tpcc
              {
                Workload.Tpcc.n_warehouses = 2;
                districts_per_warehouse = 2;
                customers_per_district = 5;
                n_items = 20;
                initial_orders_per_district = 3;
                max_items_per_order = 6;
              };
        }
      in
      let r = Harness.Run.run_exp e in
      if r.Harness.Stats.r_committed <= 0 then
        Alcotest.failf "%s committed no TPC-C txns" (Harness.Run.system_name sys))
    Harness.Run.all_systems

let test_morty_beats_mvtso_commit_rate_under_contention () =
  let exp sys =
    {
      (quick_exp sys) with
      e_clients = 48;
      e_workload = Harness.Run.Retwis { Workload.Retwis.n_keys = 2_000; theta = 0.9 };
      e_measure_us = 500_000;
    }
  in
  let m = Harness.Run.run_exp (exp Harness.Run.Morty) in
  let b = Harness.Run.run_exp (exp Harness.Run.Mvtso) in
  Alcotest.(check bool) "morty commit rate higher" true
    (m.Harness.Stats.r_commit_rate > b.Harness.Stats.r_commit_rate);
  Alcotest.(check bool) "morty re-executes" true
    (m.Harness.Stats.r_reexecs_per_txn > 0.)

(* Words allocated from entering [run_exp] to its [?faults] callback,
   which the runner calls after building the cluster, loading the data
   and creating the clients.  Counts minor allocations and direct major
   ones (a large Zipf table goes straight to the major heap).  The minor
   count comes from [Gc.minor_words]: [Gc.counters]' own minor figure
   drifts with the timing of minor collections. *)
let setup_words e =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let at_faults = ref nan in
  let w0 = words () in
  ignore (Harness.Run.run_exp ~faults:(fun _ -> at_faults := words ()) e);
  !at_faults -. w0

(* Set-up grows with the run, not with clients x keys: the clients of a
   run share one Zipf table.  Each extra client costs under a thousand
   words, far below one 50 000-entry table apiece. *)
let test_setup_scales_with_run () =
  let n_keys = 50_000 in
  let exp clients =
    {
      Harness.Run.default_exp with
      e_workload =
        Harness.Run.Ycsb { Workload.Ycsb.default_conf with n_keys };
      e_clients = clients;
      e_warmup_us = 0;
      e_measure_us = 1_000;
    }
  in
  let one = setup_words (exp 1) in
  let extra = setup_words (exp 48) -. one in
  Alcotest.(check bool)
    (Printf.sprintf "47 extra clients: %.0f words (bound %d)" extra (5 * n_keys))
    true
    (extra < float_of_int (5 * n_keys))

(* Cross-revision oracle for the runner: every system x workload x
   {fault-free, one kill/restart, follower reads} on a small config,
   printed as the result's CSV row (all of it deterministic) plus
   digests of the audited history and of the metrics samples, must
   equal test/golden_runner.txt.  The golden file was generated before
   the per-system runners were folded into one, so any behaviour change
   in the runner shows up as a diff.  On mismatch the actual output is
   written to golden_runner.actual next to the test binary. *)
let golden_workloads =
  [
    ( "tpcc",
      Harness.Run.Tpcc
        {
          Workload.Tpcc.n_warehouses = 2;
          districts_per_warehouse = 2;
          customers_per_district = 5;
          n_items = 20;
          initial_orders_per_district = 3;
          max_items_per_order = 6;
        } );
    ("retwis", Harness.Run.Retwis { Workload.Retwis.n_keys = 500; theta = 0.9 });
    ( "ycsb",
      Harness.Run.Ycsb
        { Workload.Ycsb.n_keys = 200; theta = 0.9; ops_per_txn = 4; read_pct = 50 }
    );
    ( "smallbank",
      Harness.Run.Smallbank
        { Workload.Smallbank.n_customers = 100; theta = 0.9; initial_balance = 1000 }
    );
  ]

let kill_restart (ops : Harness.Run.cluster_ops) =
  ignore (Sim.Engine.schedule_at ops.co_engine ~at:60_000 (fun () -> ops.co_kill 1));
  ignore
    (Sim.Engine.schedule_at ops.co_engine ~at:120_000 (fun () -> ops.co_restart 1))

(* Digest of an audited history: every transaction's version, outcome,
   timestamps, reads and writes. *)
let history_digest h =
  let b = Buffer.create 4096 in
  List.iter
    (fun (t : Adya.History.txn) ->
      Printf.bprintf b "%s %b %d %d r" (Cc_types.Version.to_string t.ver)
        t.committed t.start_us t.commit_us;
      List.iter
        (fun (k, v) -> Printf.bprintf b " %s@%s" k (Cc_types.Version.to_string v))
        t.reads;
      Printf.bprintf b " w %s\n" (String.concat " " t.writes))
    h;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_line sys (wname, workload) (vname, faults, staleness) =
  let label =
    Printf.sprintf "%s/%s/%s" (Harness.Run.system_name sys) wname vname
  in
  let e =
    {
      Harness.Run.default_exp with
      e_system = sys;
      e_workload = workload;
      e_clients = 6;
      e_cores = 2;
      e_warmup_us = 30_000;
      e_measure_us = 150_000;
      e_seed = 7;
      e_label = label;
      e_max_staleness_us = staleness;
    }
  in
  let sink = Obs.Sink.create ~seed:7 in
  let obs =
    Obs.Bus.create ~sink ~lineage_log:(Obs.Lineage.create ~label ()) ()
  in
  let r, h = Harness.Run.run_exp_audited ?faults ~obs e in
  let hist = history_digest h in
  let b = Buffer.create 4096 in
  List.iter
    (fun (s : Obs.Sink.sample) ->
      Printf.bprintf b "%d %s %h %d %d %d %d\n" s.sm_ts s.sm_replica s.sm_cpu_busy
        s.sm_queue s.sm_records s.sm_versions s.sm_wmark_lag)
    (Obs.Sink.samples sink);
  let samples = Digest.to_hex (Digest.string (Buffer.contents b)) in
  Printf.sprintf "%s hist=%s samples=%s" (Harness.Stats.to_csv_row r) hist samples

let golden_lines () =
  let variants =
    [ ("plain", None, 0); ("kill", Some kill_restart, 0); ("stale", None, 50_000) ]
  in
  List.concat_map
    (fun sys ->
      List.concat_map
        (fun w -> List.map (golden_line sys w) variants)
        golden_workloads)
    Harness.Run.[ Morty; Mvtso; Tapir; Tapir_nodist; Spanner ]

(* Compare [actual] with the lines of the golden [file] that satisfy
   [select].  On mismatch, write [actual] to [actual_file] next to the
   test binary and fail on the first differing line. *)
let check_golden ~file ?(select = fun _ -> true) ~actual_file actual =
  let expected =
    List.filter select (In_channel.with_open_bin file In_channel.input_lines)
  in
  if actual <> expected then begin
    Out_channel.with_open_bin actual_file (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let rec first_diff i = function
      | a :: xs, e :: ys when a = e -> first_diff (i + 1) (xs, ys)
      | a :: _, e :: _ ->
        Alcotest.failf "%s line %d differs:\n  want %s\n  got  %s" file i e a
      | _ ->
        Alcotest.failf "%s has %d lines, run produced %d" file
          (List.length expected) (List.length actual)
    in
    first_diff 1 (actual, expected)
  end

let test_runner_golden () =
  check_golden ~file:"golden_runner.txt" ~actual_file:"golden_runner.actual"
    (golden_lines ())

let suites =
  [
    ( "harness.stats",
      [
        Alcotest.test_case "counts" `Quick test_stats_counts;
        Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
        Alcotest.test_case "empty" `Quick test_stats_empty;
        Alcotest.test_case "growth" `Quick test_stats_growth;
        Alcotest.test_case "to_result" `Quick test_to_result;
      ] );
    ( "harness.run",
      [
        Alcotest.test_case "deterministic" `Quick test_run_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_run_seed_sensitivity;
        Alcotest.test_case "set-up scales with the run" `Quick
          test_setup_scales_with_run;
        Alcotest.test_case "all systems run retwis" `Slow test_all_systems_produce_goodput;
        Alcotest.test_case "all systems run tpcc" `Slow test_tpcc_exp_runs_on_all_systems;
        Alcotest.test_case "find peak" `Slow test_find_peak;
        Alcotest.test_case "morty commit rate advantage" `Slow
          test_morty_beats_mvtso_commit_rate_under_contention;
        Alcotest.test_case "runner golden (system x workload x fault)" `Slow
          test_runner_golden;
      ] );
  ]
