(* Engine counters: exact event/heap counters on hand-built schedules,
   the live/raw pending split, determinism of the counters across runs
   and --jobs, and the CSV schema contract. *)

open Sim

(* Hand-built schedule: 3 timers, 2 deliveries, 1 ticker; one timer
   cancelled before it fires (drained as a ghost), one delivery
   cancelled after it fired (no-op).  Every counter is predictable. *)
let test_counters_exact () =
  let e = Engine.create () in
  let fired = ref [] in
  let note k () = fired := k :: !fired in
  ignore (Engine.schedule e ~kind:Engine.Timer ~after:10 (note `T1));
  let t2 = Engine.schedule e ~kind:Engine.Timer ~after:20 (note `T2) in
  ignore (Engine.schedule e ~kind:Engine.Timer ~after:30 (note `T3));
  let d1 = Engine.schedule e ~kind:Engine.Delivery ~after:5 (note `D1) in
  ignore (Engine.schedule e ~kind:Engine.Delivery ~after:15 (note `D2));
  ignore (Engine.schedule e ~kind:Engine.Ticker ~after:25 (note `K1));
  Alcotest.(check int) "six live" 6 (Engine.pending e);
  Engine.cancel e t2;
  Alcotest.(check int) "five live after cancel" 5 (Engine.pending e);
  Alcotest.(check int) "six raw" 6 (Engine.raw_pending e);
  Engine.run e;
  Engine.cancel e d1;
  (* cancelling a fired event: no-op *)
  let es = Harness.Taps.engstat_of_engine e in
  let d = es.Obs.Engstat.es_det in
  Alcotest.(check int) "events" 5 d.Obs.Engstat.de_events;
  Alcotest.(check int) "timers" 2 d.Obs.Engstat.de_timers;
  Alcotest.(check int) "deliveries" 2 d.Obs.Engstat.de_deliveries;
  Alcotest.(check int) "tickers" 1 d.Obs.Engstat.de_tickers;
  let h = d.Obs.Engstat.de_heap in
  Alcotest.(check int) "pushes" 6 h.Obs.Engstat.hp_pushes;
  Alcotest.(check int) "pops" 6 h.Obs.Engstat.hp_pops;
  Alcotest.(check int) "cancels" 1 h.Obs.Engstat.hp_cancels;
  Alcotest.(check int) "ghost drains" 1 h.Obs.Engstat.hp_ghost_drains;
  Alcotest.(check int) "max live" 6 h.Obs.Engstat.hp_max_live;
  Alcotest.(check int) "max raw" 6 h.Obs.Engstat.hp_max_raw;
  Alcotest.(check (list string))
    "fire order"
    [ "D1"; "T1"; "D2"; "K1"; "T3" ]
    (List.rev_map
       (function
         | `T1 -> "T1" | `T2 -> "T2" | `T3 -> "T3"
         | `D1 -> "D1" | `D2 -> "D2" | `K1 -> "K1")
       !fired)

(* The heap conservation law holds at every point of the lifecycle:
   pushes = pops + live + undrained ghosts, and after a full drain
   pops = pushes and ghost_drains = cancels. *)
let test_heap_invariant () =
  let e = Engine.create () in
  let timers =
    List.init 20 (fun i -> Engine.schedule e ~after:(10 + i) (fun () -> ()))
  in
  List.iteri (fun i t -> if i mod 3 = 0 then Engine.cancel e t) timers;
  let check_conservation () =
    let h = Engine.heap_stats e in
    let undrained_ghosts = Engine.raw_pending e - Engine.pending e in
    Alcotest.(check int) "pushes = pops + live + ghosts"
      h.Engine.hs_pushes
      (h.Engine.hs_pops + h.Engine.hs_live + undrained_ghosts)
  in
  check_conservation ();
  Engine.run_until e ~limit:20;
  check_conservation ();
  Engine.run e;
  check_conservation ();
  let h = Engine.heap_stats e in
  Alcotest.(check int) "full drain: pops = pushes" h.Engine.hs_pushes
    h.Engine.hs_pops;
  Alcotest.(check int) "full drain: ghosts = cancels" h.Engine.hs_cancels
    h.Engine.hs_ghost_drains;
  Alcotest.(check int) "live zero" 0 h.Engine.hs_live

(* Full-harness determinism: two identical runs produce identical CSV
   rows (the row carries the engine heap counters) and identical engine
   counters. *)
let small_exp label =
  {
    Harness.Run.default_exp with
    Harness.Run.e_clients = 4;
    e_cores = 2;
    e_warmup_us = 20_000;
    e_measure_us = 50_000;
    e_seed = 11;
    e_label = label;
  }

let test_run_to_run_deterministic () =
  let r1 = Harness.Run.run_exp (small_exp "engstat") in
  let r2 = Harness.Run.run_exp (small_exp "engstat") in
  Alcotest.(check string) "csv rows identical"
    (Harness.Stats.to_csv_row r1)
    (Harness.Stats.to_csv_row r2);
  Alcotest.(check bool) "engine counters identical" true
    (r1.Harness.Stats.r_engstat = r2.Harness.Stats.r_engstat);
  let d = r1.Harness.Stats.r_engstat.Obs.Engstat.es_det in
  Alcotest.(check bool) "engine did work" true
    (d.Obs.Engstat.de_events > 0
    && d.Obs.Engstat.de_heap.Obs.Engstat.hp_pushes
       >= d.Obs.Engstat.de_events)

(* Every run's engine counters are identical between the serial sweep
   loop and a 4-way parallel sweep, in submission order. *)
let sweep_cfg =
  {
    Explore.Sweep.smoke_config with
    Explore.Sweep.systems = [ Harness.Run.Morty; Harness.Run.Tapir ];
    seeds = [ 1 ];
    schedules_per_seed = 1;
    warmup_us = 20_000;
    measure_us = 50_000;
  }

let test_det_section_jobs_invariant () =
  let counters jobs =
    let seen = ref [] in
    let progress _case _prof = function
      | Ok r -> seen := r.Harness.Stats.r_engstat :: !seen
      | Error _ -> ()
    in
    let s = Explore.Sweep.run ~progress ~jobs sweep_cfg in
    Alcotest.(check int) "every run passed" s.Explore.Sweep.s_runs
      (List.length !seen);
    List.rev !seen
  in
  Alcotest.(check bool) "per-run counters identical" true
    (counters 1 = counters 4)

(* Golden header: the first 17 CSV columns are the pre-observability
   schema and must never shift; the engine columns append at the very
   end.  A failure here means a CSV consumer contract broke. *)
let stable_17 =
  [
    "label"; "committed"; "aborted"; "goodput_per_s"; "mean_latency_ms";
    "p50_latency_ms"; "p99_latency_ms"; "commit_rate"; "cpu_utilization";
    "reexecs_per_txn"; "msgs_per_txn"; "kills"; "restarts"; "transfer_msgs";
    "transfer_bytes"; "catchups"; "catchup_wait_us";
  ]

(* Full golden header, grouped as in the EXPERIMENTS.md "CSV column
   reference" table — the doc and this list must change together. *)
let golden_header =
  stable_17
  @ [ "exec_ms"; "prepare_ms"; "finalize_ms"; "backoff_ms" ]
  @ [
      "ab_missed_write"; "ab_validation_fail"; "ab_lock_conflict";
      "ab_watermark_abandon"; "ab_recovery_stall"; "ab_timeout";
      "ab_user_abort"; "ab_stale_replica";
    ]
  @ [ "ev_timers"; "ev_deliveries"; "ev_tickers" ]
  @ [
      "ro_committed"; "ro_aborted"; "read_avail"; "write_avail";
      "stale_p99_ms";
    ]
  @ [ "ttr_write_ms"; "ttr_wm_ms" ]
  @ [
      "eng_heap_pushes"; "eng_heap_pops"; "eng_heap_cancels";
      "eng_heap_ghost_drains"; "eng_heap_max_live"; "eng_heap_max_raw";
    ]
  @ [
      "lin_cascades"; "lin_depth_p99"; "lin_depth_max"; "lin_salvaged_us";
      "lin_lost_us"; "lin_hot_key";
    ]

let test_csv_header_golden () =
  let cols = String.split_on_char ',' Harness.Stats.csv_header in
  Alcotest.(check (list string))
    "first 17 columns stable" stable_17
    (List.filteri (fun i _ -> i < 17) cols);
  Alcotest.(check (list string)) "full header golden" golden_header cols;
  (* Row arity always matches the header. *)
  let r = Harness.Run.run_exp (small_exp "golden") in
  Alcotest.(check int) "row arity"
    (List.length cols)
    (List.length (String.split_on_char ',' (Harness.Stats.to_csv_row r)))

let suites =
  [
    ( "engstat",
      [
        Alcotest.test_case "exact counters on hand-built schedule" `Quick
          test_counters_exact;
        Alcotest.test_case "heap conservation law" `Quick test_heap_invariant;
        Alcotest.test_case "run-to-run deterministic" `Quick
          test_run_to_run_deterministic;
        Alcotest.test_case "det section invariant under --jobs" `Quick
          test_det_section_jobs_invariant;
        Alcotest.test_case "csv header golden" `Quick test_csv_header_golden;
      ] );
  ]
