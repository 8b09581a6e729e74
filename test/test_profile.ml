(* Critical-path profiler: golden determinism, the decomposition
   invariant (components sum exactly to measured latency), the
   wasted-work identity (useful + salvaged + discarded = busy total),
   the heatmap ordering, and the paper's shape claims on the
   high-contention sweep point. *)

let contended_exp ?(system = Harness.Run.Morty) ?(clients = 16) ?(seed = 21) ()
    =
  {
    Harness.Run.default_exp with
    e_system = system;
    e_workload =
      Harness.Run.Ycsb
        { Workload.Ycsb.n_keys = 200; theta = 1.1; ops_per_txn = 4; read_pct = 50 };
    e_clients = clients;
    e_cores = 2;
    e_warmup_us = 20_000;
    e_measure_us = 150_000;
    e_seed = seed;
    e_label = "profile-test";
  }

let run_prof ?system ?clients ?seed () =
  let e = contended_exp ?system ?clients ?seed () in
  let prof = Obs.Profile.create ~label:e.Harness.Run.e_label () in
  let r = Harness.Run.run_exp ~prof e in
  (r, prof)

(* Same seed, twice: the profile JSON must be byte-identical.  Any
   wall-clock, hash-iteration-order, or unseeded identity leaking into
   the profiler fails here (hot_keys and by_message_us both come out of
   hashtables, so their sort stability is load-bearing). *)
let test_profile_golden () =
  let _, p1 = run_prof () in
  let _, p2 = run_prof () in
  Alcotest.(check bool) "txns recorded" true (Obs.Profile.n_txns p1 > 0);
  Alcotest.(check string) "profile JSON byte-identical"
    (Obs.Profile.to_json p1) (Obs.Profile.to_json p2)

let test_profile_valid_json () =
  let _, prof = run_prof ~clients:8 ~seed:3 () in
  let json = Obs.Profile.to_json prof in
  Alcotest.(check bool) "newline-terminated" true
    (String.length json > 0 && json.[String.length json - 1] = '\n');
  (try Test_obs.validate_json (String.trim json)
   with Test_obs.Bad_json msg -> Alcotest.failf "invalid profile JSON: %s" msg);
  let contains sub =
    let ls = String.length sub and ln = String.length json in
    let rec go i = i + ls <= ln && (String.sub json i ls = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun field ->
      Alcotest.(check bool) ("has " ^ field) true
        (contains (Printf.sprintf "\"%s\"" field)))
    [
      "label"; "committed_txns"; "latency_sum_us"; "decomposition_us";
      "decomposition_frac"; "dominant_component"; "wasted_work";
      "busy_total_us"; "useful_frac"; "salvaged_frac"; "discarded_frac";
      "by_message_us"; "hot_keys";
    ]

(* The decomposition invariant, on all four systems: each recorded
   transaction's component cells sum to exactly its measured latency —
   no microsecond unaccounted, none double-booked — and the aggregate
   matches the per-transaction records. *)
let test_decomposition_sums () =
  List.iter
    (fun system ->
      let name = Harness.Run.system_name system in
      let _, prof = run_prof ~system ~seed:5 () in
      let records = Obs.Profile.txn_records prof in
      Alcotest.(check bool) (name ^ ": txns recorded") true (records <> []);
      let lat_sum = ref 0 in
      List.iter
        (fun (latency_us, comps) ->
          lat_sum := !lat_sum + latency_us;
          Array.iter
            (fun v -> if v < 0 then Alcotest.failf "%s: negative cell" name)
            comps;
          Alcotest.(check int)
            (name ^ ": comps sum to latency")
            latency_us
            (Array.fold_left ( + ) 0 comps))
        records;
      let agg = Obs.Profile.decomposition prof in
      Alcotest.(check int)
        (name ^ ": aggregate matches records")
        !lat_sum
        (Array.fold_left ( + ) 0 agg))
    Harness.Run.all_systems

(* The wasted-work identity, on all four systems: useful + salvaged +
   discarded = busy total exactly, infra is inside useful, and the
   per-message-kind ledger covers the same microseconds. *)
let test_waste_identity () =
  List.iter
    (fun system ->
      let name = Harness.Run.system_name system in
      let _, prof = run_prof ~system ~seed:7 () in
      let w = Obs.Profile.waste prof in
      Alcotest.(check bool) (name ^ ": cores were busy") true (w.Obs.Profile.w_total_us > 0);
      Alcotest.(check int)
        (name ^ ": useful+salvaged+discarded = total")
        w.Obs.Profile.w_total_us
        (w.Obs.Profile.w_useful_us + w.Obs.Profile.w_salvaged_us
       + w.Obs.Profile.w_discarded_us);
      Alcotest.(check bool)
        (name ^ ": infra inside useful")
        true
        (w.Obs.Profile.w_infra_us >= 0
        && w.Obs.Profile.w_infra_us <= w.Obs.Profile.w_useful_us);
      let by_kind = Obs.Profile.busy_by_kind prof in
      Alcotest.(check int)
        (name ^ ": by-kind ledger covers busy total")
        w.Obs.Profile.w_total_us
        (List.fold_left (fun a (_, us) -> a + us) 0 by_kind);
      (* only Morty re-executes, so only Morty can salvage *)
      if system <> Harness.Run.Morty then
        Alcotest.(check int) (name ^ ": no salvage without re-execution") 0
          w.Obs.Profile.w_salvaged_us)
    Harness.Run.all_systems

let test_hot_keys () =
  let _, prof = run_prof ~seed:9 () in
  let hot = Obs.Profile.hot_keys prof 3 in
  Alcotest.(check bool) "contention observed" true (hot <> []);
  let score (a : Obs.Profile.key_acc) =
    a.Obs.Profile.k_conflicts + a.Obs.Profile.k_reexecs + a.Obs.Profile.k_aborts
  in
  let last = ref max_int in
  List.iter
    (fun (k, a) ->
      let s = score a in
      if s > !last then Alcotest.failf "hot_keys not sorted at %s" k;
      if s <= 0 then Alcotest.failf "zero-score hot key %s" k;
      last := s)
    hot;
  Alcotest.(check int) "top-3 is at most 3" 3 (max 3 (List.length hot))

let test_null_profiler () =
  let p = Obs.Profile.null () in
  Alcotest.(check bool) "null disabled" false (Obs.Profile.enabled p);
  (* hooks on the null profiler are no-ops, not crashes *)
  Obs.Profile.note_busy p ~kind:"x" ~ver:(Some (1, 1)) ~eid:0 ~cost_us:5;
  Obs.Profile.note_conflict p ~key:"k";
  Obs.Profile.record_txn p ~latency_us:10 ~comps:(Array.make Obs.Profile.n_cells 0);
  Alcotest.(check int) "null records nothing" 0 (Obs.Profile.n_txns p);
  Alcotest.(check bool) "create enabled" true
    (Obs.Profile.enabled (Obs.Profile.create ()))

(* The interval-attribution primitive, pinned: charges must tile the
   interval exactly in every geometry. *)
let test_attribute_pinned () =
  let sum comps = Array.fold_left ( + ) 0 comps in
  (* A chain fully inside the interval: transit/queue/service get their
     segments, the uncovered remainder is protocol wait. *)
  let comps = Array.make Obs.Profile.n_cells 0 in
  Obs.Profile.attribute ~comps ~phase:0 ~t0:100 ~t1:200
    (Some (180, 10, 5, 15));
  (* reply sent 180, service 165..180, enqueued 160, request sent 150;
     return transit 180..200 (20) + outbound 150..160 (10) *)
  let c comp = comps.(Obs.Profile.cell Obs.Profile.P_execute comp) in
  Alcotest.(check int) "transit" 30 (c Obs.Profile.C_transit);
  Alcotest.(check int) "queue" 5 (c Obs.Profile.C_queue);
  Alcotest.(check int) "service" 15 (c Obs.Profile.C_service);
  Alcotest.(check int) "proto remainder" 50 (c Obs.Profile.C_proto);
  Alcotest.(check int) "tiles interval" 100 (sum comps);
  (* A chain that began before t0 is a trailing quorum reply: the whole
     interval is straggler wait. *)
  let comps = Array.make Obs.Profile.n_cells 0 in
  Obs.Profile.attribute ~comps ~phase:1 ~t0:100 ~t1:200 (Some (190, 95, 0, 5));
  Alcotest.(check int) "straggler takes all" 100
    comps.(Obs.Profile.cell Obs.Profile.P_prepare Obs.Profile.C_straggler);
  Alcotest.(check int) "straggler tiles" 100 (sum comps);
  (* Timer-ended waits are protocol wait. *)
  let comps = Array.make Obs.Profile.n_cells 0 in
  Obs.Profile.attribute ~comps ~phase:3 ~t0:0 ~t1:40 None;
  Alcotest.(check int) "timer is proto wait" 40
    comps.(Obs.Profile.cell Obs.Profile.P_retry Obs.Profile.C_proto);
  (* Empty and inverted intervals charge nothing. *)
  let comps = Array.make Obs.Profile.n_cells 0 in
  Obs.Profile.attribute ~comps ~phase:0 ~t0:50 ~t1:50 None;
  Obs.Profile.attribute ~comps ~phase:0 ~t0:60 ~t1:50 (Some (55, 1, 1, 1));
  Alcotest.(check int) "degenerate intervals" 0 (sum comps)

(* --- the paper's shape claims at the Fig 9 high-contention point --------- *)

(* Same operating point as the committed bench baseline
   (bench/BENCH_PR4.json): YCSB theta=1.2 over 1k keys, 48 closed-loop
   clients.  One run per system, shared by the claim checks below. *)
let fig9_exp system =
  {
    Harness.Run.default_exp with
    e_system = system;
    e_workload =
      Harness.Run.Ycsb
        { Workload.Ycsb.n_keys = 1_000; theta = 1.2; ops_per_txn = 4; read_pct = 50 };
    e_clients = 48;
    e_cores = 2;
    e_warmup_us = 100_000;
    e_measure_us = 300_000;
    e_seed = 42;
    e_label = "fig9-shape";
  }

let fig9_profiles =
  lazy
    (List.map
       (fun system ->
         let prof =
           Obs.Profile.create
             ~label:(Harness.Run.system_name system)
             ()
         in
         ignore (Harness.Run.run_exp ~prof (fig9_exp system));
         (system, prof))
       Harness.Run.all_systems)

let fig9 system = List.assoc system (Lazy.force fig9_profiles)

let waste_fracs prof =
  let w = Obs.Profile.waste prof in
  let f n = float_of_int n /. float_of_int (max 1 w.Obs.Profile.w_total_us) in
  ( f w.Obs.Profile.w_useful_us,
    f w.Obs.Profile.w_salvaged_us,
    f w.Obs.Profile.w_discarded_us )

let idle_frac prof =
  (* client-idle share of latency: backoff + protocol wait *)
  let agg = Obs.Profile.decomposition prof in
  let comp_sum c =
    let ci = Obs.Profile.comp_index c in
    let s = ref 0 in
    for p = 0 to Obs.Profile.n_phases - 1 do
      s := !s + agg.((p * Obs.Profile.n_comps) + ci)
    done;
    !s
  in
  let total = Array.fold_left ( + ) 0 agg in
  float_of_int (comp_sum Obs.Profile.C_backoff + comp_sum Obs.Profile.C_proto)
  /. float_of_int (max 1 total)

(* Morty turns would-be aborts into re-executions: at high contention it
   salvages prefixes and discards far less than MVTSO, which throws the
   whole execution away on every validation abort. *)
let test_shape_morty_vs_mvtso () =
  let _, m_salv, m_disc = waste_fracs (fig9 Harness.Run.Morty) in
  let _, v_salv, v_disc = waste_fracs (fig9 Harness.Run.Mvtso) in
  Alcotest.(check bool) "morty salvages at contention" true (m_salv > 0.);
  Alcotest.(check (float 1e-9)) "mvtso never salvages" 0. v_salv;
  Alcotest.(check bool)
    (Printf.sprintf "morty discards less than mvtso (%.3f < %.3f)" m_disc v_disc)
    true (m_disc < v_disc)

(* TAPIR aborts on OCC validation failure and backs off exponentially:
   at the high-contention point backoff dominates its committed
   transactions' latency. *)
let test_shape_tapir_backoff () =
  Alcotest.(check string) "tapir dominated by backoff" "backoff"
    (Obs.Profile.dominant_component (fig9 Harness.Run.Tapir))

(* Spanner's wound-wait queues conflicting clients on locks rather than
   aborting them, so its idle time splits between backoff (retries after
   wounds) and protocol wait (lock queueing + commit-wait).  The shape
   claim is about client idleness, not the split: the paper's
   observation that these systems leave cores idle under contention. *)
let test_shape_spanner_idle () =
  let f = idle_frac (fig9 Harness.Run.Spanner) in
  Alcotest.(check bool)
    (Printf.sprintf "spanner idle (backoff+proto) dominates (%.3f > 0.5)" f)
    true (f > 0.5)

(* Cross-revision oracle for the profiler's inputs: the profile of
   `morty_bench -s SYS -w ycsb --keys 200 --theta 1.1 -c 16 --cores 2
   --warmup-ms 20 --duration-ms 300 --seed 21 --profile-out F` for each
   system, concatenated, must equal test/golden_profile.txt.  The golden
   file was recorded before provenance was gated on an enabled profiler,
   so any change in what the profiler sees shows up as a diff.  On
   mismatch the actual output is written to golden_profile.actual next
   to the test binary. *)
let golden_profile_systems = Harness.Run.[ Morty; Mvtso; Tapir; Spanner ]

let bench_exp system =
  let clients = 16 and cores = 2 in
  {
    Harness.Run.default_exp with
    e_system = system;
    e_workload =
      Harness.Run.Ycsb
        { Workload.Ycsb.default_conf with n_keys = 200; theta = 1.1; read_pct = 50 };
    e_clients = clients;
    e_cores = cores;
    e_measure_us = 300_000;
    e_warmup_us = 20_000;
    e_seed = 21;
    e_label =
      Printf.sprintf "%s/%s c=%d cores=%d" (Harness.Run.system_name system)
        (Simnet.Latency.setup_name Simnet.Latency.Reg) clients cores;
  }

let test_profile_matches_golden () =
  let actual =
    List.map
      (fun system ->
        let e = bench_exp system in
        let prof = Obs.Profile.create ~label:e.Harness.Run.e_label () in
        ignore (Harness.Run.run_exp ~prof e);
        Obs.Profile.to_json prof)
      golden_profile_systems
  in
  let expected =
    In_channel.with_open_bin "golden_profile.txt" In_channel.input_all
  in
  if String.concat "" actual <> expected then begin
    Out_channel.with_open_bin "golden_profile.actual" (fun oc ->
        List.iter (output_string oc) actual);
    let want = Array.of_list (String.split_on_char '\n' expected) in
    List.iteri
      (fun i (system, got) ->
        let want = if i < Array.length want then want.(i) else "" in
        if String.trim got <> want then
          Alcotest.failf "%s profile differs:\n  want %s\n  got  %s"
            (Harness.Run.system_name system) want (String.trim got))
      (List.combine golden_profile_systems actual);
    Alcotest.fail "golden_profile.txt has extra lines"
  end

(* Attaching the profiler observes, never steers: the result row and the
   audited history are identical with and without it. *)
let test_profiler_does_not_perturb () =
  List.iter
    (fun system ->
      let e = bench_exp system in
      let name = Harness.Run.system_name system in
      let r0, h0 = Harness.Run.run_exp_audited e in
      let prof = Obs.Profile.create ~label:e.Harness.Run.e_label () in
      let r1, h1 = Harness.Run.run_exp_audited ~prof e in
      Alcotest.(check bool) (name ^ ": profiled") true (Obs.Profile.n_txns prof > 0);
      Alcotest.(check string) (name ^ ": csv row")
        (Harness.Stats.to_csv_row r0) (Harness.Stats.to_csv_row r1);
      Alcotest.(check string) (name ^ ": history digest")
        (Test_harness.history_digest h0) (Test_harness.history_digest h1))
    golden_profile_systems

let suites =
  [
    ( "profile-core",
      [
        Alcotest.test_case "golden double-run" `Quick test_profile_golden;
        Alcotest.test_case "valid JSON" `Quick test_profile_valid_json;
        Alcotest.test_case "attribute pinned" `Quick test_attribute_pinned;
        Alcotest.test_case "null profiler" `Quick test_null_profiler;
        Alcotest.test_case "hot keys sorted" `Quick test_hot_keys;
        Alcotest.test_case "matches golden (all systems)" `Quick
          test_profile_matches_golden;
        Alcotest.test_case "profiler does not perturb" `Quick
          test_profiler_does_not_perturb;
      ] );
    ( "profile-invariants",
      [
        Alcotest.test_case "decomposition sums to latency (all systems)"
          `Quick test_decomposition_sums;
        Alcotest.test_case "waste identity (all systems)" `Quick
          test_waste_identity;
      ] );
    ( "profile-shape",
      [
        Alcotest.test_case "morty discards less than mvtso" `Slow
          test_shape_morty_vs_mvtso;
        Alcotest.test_case "tapir backoff dominates" `Slow
          test_shape_tapir_backoff;
        Alcotest.test_case "spanner idles on locks" `Slow
          test_shape_spanner_idle;
      ] );
  ]
