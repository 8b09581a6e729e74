(* Observability layer: histogram edge cases, the abort-reason taxonomy,
   trace/metrics golden determinism, span coverage, and the
   events-by-kind accounting. *)

(* --- log2 HDR histogram ------------------------------------------------- *)

let test_hist_empty () =
  let h = Obs.Hist.create () in
  Alcotest.(check int) "count" 0 (Obs.Hist.count h);
  Alcotest.(check (float 1e-9)) "mean" 0. (Obs.Hist.mean h);
  Alcotest.(check (float 1e-9)) "p50" 0. (Obs.Hist.percentile h 0.5);
  Alcotest.(check (float 1e-9)) "p99" 0. (Obs.Hist.percentile h 0.99)

let test_hist_single () =
  (* A single sample is every percentile, exactly — no bucket rounding. *)
  List.iter
    (fun v ->
      let h = Obs.Hist.create () in
      Obs.Hist.record h v;
      List.iter
        (fun p ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "p%.2f of singleton %d" p v)
            (float_of_int v) (Obs.Hist.percentile h p))
        [ 0.0; 0.5; 0.99; 1.0 ])
    [ 0; 1; 7; 1000; 123_456_789 ]

let test_hist_accuracy () =
  (* 32 sub-buckets per octave bound the relative quantization error. *)
  let h = Obs.Hist.create () in
  for i = 1 to 1000 do
    Obs.Hist.record h (i * 100)
  done;
  let check_pct p expect =
    let got = Obs.Hist.percentile h p in
    let rel = abs_float (got -. expect) /. expect in
    if rel > 0.05 then
      Alcotest.failf "p%.2f: got %.0f, want %.0f (rel err %.3f)" p got expect rel
  in
  check_pct 0.50 50_000.;
  check_pct 0.99 99_000.;
  Alcotest.(check int) "count" 1000 (Obs.Hist.count h)

let test_hist_interpolation_pinned () =
  (* Values 0..31 each occupy their own unit-width sub-bucket; with
     within-bucket interpolation p50 is the exact midpoint instead of a
     bucket lower bound. *)
  let h = Obs.Hist.create () in
  for v = 0 to 31 do
    Obs.Hist.record h v
  done;
  Alcotest.(check (float 1e-9)) "p50 of 0..31" 16.0 (Obs.Hist.percentile h 0.5);
  Alcotest.(check (float 1e-9)) "p100 clamps to observed max" 31.0
    (Obs.Hist.percentile h 1.0);
  (* Bucket {64,65} has width 2: the j-th of c samples interpolates to
     lower + width*j/c, clamped to the observed range. *)
  let h2 = Obs.Hist.create () in
  List.iter (Obs.Hist.record h2) [ 64; 64; 65; 65 ];
  Alcotest.(check (float 1e-9)) "p25 interpolates mid-bucket" 64.5
    (Obs.Hist.percentile h2 0.25);
  Alcotest.(check (float 1e-9)) "p50" 65.0 (Obs.Hist.percentile h2 0.5);
  Alcotest.(check (float 1e-9)) "p75 clamps to max" 65.0
    (Obs.Hist.percentile h2 0.75);
  (* Repeated identical samples stay exact at every percentile: the
     observed-range clamp defeats the interpolation offset. *)
  let h3 = Obs.Hist.create () in
  for _ = 1 to 100 do
    Obs.Hist.record h3 7
  done;
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%.2f of 100x7" p)
        7.0 (Obs.Hist.percentile h3 p))
    [ 0.01; 0.5; 0.99; 1.0 ]

let test_hist_monotone () =
  let h = Obs.Hist.create () in
  let rng = Sim.Rng.create 9 in
  for _ = 1 to 500 do
    Obs.Hist.record h (Sim.Rng.int rng 1_000_000)
  done;
  let last = ref neg_infinity in
  List.iter
    (fun p ->
      let v = Obs.Hist.percentile h p in
      if v < !last then Alcotest.failf "percentile not monotone at p=%.2f" p;
      last := v)
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]

(* Stats wraps the histogram; re-check the edge cases through its API
   (empty accumulator and single commit were previously ill-defined). *)
let test_stats_percentile_edges () =
  let s = Harness.Stats.create () in
  Alcotest.(check (float 1e-9)) "empty p99" 0.
    (Harness.Stats.percentile_latency_us s 0.99);
  Harness.Stats.record_commit s ~latency_us:777;
  Alcotest.(check (float 1e-9)) "single p50" 777.
    (Harness.Stats.percentile_latency_us s 0.5);
  Alcotest.(check (float 1e-9)) "single p99" 777.
    (Harness.Stats.percentile_latency_us s 0.99)

(* --- abort-reason taxonomy ---------------------------------------------- *)

(* Exhaustive match, deliberately no catch-all: adding a taxonomy variant
   without classifying it breaks this compile. *)
let describe : Obs.Abort_reason.t -> string = function
  | Obs.Abort_reason.Missed_write -> "validation saw a write the read missed"
  | Obs.Abort_reason.Validation_fail -> "read a value that did not survive"
  | Obs.Abort_reason.Lock_conflict -> "wound-wait / lock-table conflict"
  | Obs.Abort_reason.Watermark_abandon -> "fell behind the truncation watermark"
  | Obs.Abort_reason.Recovery_stall -> "decision lost to an amnesiac replica"
  | Obs.Abort_reason.Timeout -> "straggler timeout with no vote verdict"
  | Obs.Abort_reason.User_abort -> "application rolled back"
  | Obs.Abort_reason.Stale_replica -> "every reachable replica was too stale"

let test_taxonomy_complete () =
  Alcotest.(check int) "all lists every variant" Obs.Abort_reason.count
    (List.length Obs.Abort_reason.all);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Obs.Abort_reason.to_string r ^ " described")
        true
        (String.length (describe r) > 0);
      (* string round-trip *)
      match Obs.Abort_reason.of_string (Obs.Abort_reason.to_string r) with
      | Some r' ->
        Alcotest.(check int) "roundtrip" (Obs.Abort_reason.index r)
          (Obs.Abort_reason.index r')
      | None ->
        Alcotest.failf "of_string failed for %s" (Obs.Abort_reason.to_string r))
    Obs.Abort_reason.all;
  (* indices are a bijection onto 0..count-1 *)
  let seen = Array.make Obs.Abort_reason.count false in
  List.iter
    (fun r -> seen.(Obs.Abort_reason.index r) <- true)
    Obs.Abort_reason.all;
  Array.iteri
    (fun i b -> if not b then Alcotest.failf "index %d unused" i)
    seen

let test_taxonomy_prefer () =
  let open Obs.Abort_reason in
  Alcotest.(check string) "watermark beats timeout" "watermark-abandon"
    (to_string (prefer Timeout Watermark_abandon));
  Alcotest.(check string) "missed-write beats validation" "missed-write"
    (to_string (prefer Validation_fail Missed_write));
  Alcotest.(check string) "symmetric" "missed-write"
    (to_string (prefer Missed_write Validation_fail))

(* --- minimal JSON parser (no yojson in the tree) ------------------------ *)

exception Bad_json of string

let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> fail "value"
  and literal lit =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then pos := !pos + l
    else fail ("literal " ^ lit)
  and number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      && (match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail "number"
  and str () =
    expect '"';
    let fin = ref false in
    while not !fin do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
        incr pos;
        fin := true
      | Some '\\' ->
        incr pos;
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos
        | Some 'u' ->
          incr pos;
          for _ = 1 to 4 do
            (match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> ()
            | _ -> fail "bad \\u escape");
            incr pos
          done
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some _ -> incr pos
    done
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let fin = ref false in
      while not !fin do
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' ->
          incr pos;
          fin := true
        | _ -> fail "object"
      done
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let fin = ref false in
      while not !fin do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' ->
          incr pos;
          fin := true
        | _ -> fail "array"
      done
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

(* --- traced experiment runs --------------------------------------------- *)

let traced_exp ?(system = Harness.Run.Morty) ?(clients = 2) ?(seed = 11) () =
  {
    Harness.Run.default_exp with
    e_system = system;
    e_workload =
      Harness.Run.Ycsb
        { Workload.Ycsb.n_keys = 50; theta = 0.9; ops_per_txn = 4; read_pct = 50 };
    e_clients = clients;
    e_cores = 2;
    e_warmup_us = 20_000;
    e_measure_us = 100_000;
    e_seed = seed;
    e_label = "obs-test";
  }

let run_traced ?system ?clients ?(seed = 11) () =
  let obs = Obs.Sink.create ~seed in
  let r =
    Harness.Run.run_exp ~obs:(Obs.Bus.create ~sink:obs ())
      (traced_exp ?system ?clients ~seed ())
  in
  (r, obs)

(* The golden property: two identical runs produce byte-identical trace
   JSON and metrics CSV — any wall-clock, hash-order, or unseeded
   identity leaking into the emission layer fails here. *)
let test_trace_golden () =
  let _, obs1 = run_traced () in
  let _, obs2 = run_traced () in
  let j1 = Obs.Trace.to_json obs1 and j2 = Obs.Trace.to_json obs2 in
  Alcotest.(check bool) "trace emitted" true (Obs.Sink.event_count obs1 > 0);
  Alcotest.(check string) "trace JSON byte-identical" j1 j2;
  Alcotest.(check string) "metrics CSV byte-identical"
    (Obs.Metrics.to_csv obs1) (Obs.Metrics.to_csv obs2)

let test_trace_valid_json () =
  let _, obs = run_traced ~clients:8 () in
  let json = Obs.Trace.to_json obs in
  (try validate_json json
   with Bad_json msg -> Alcotest.failf "invalid trace JSON: %s" msg);
  (* spot-check the trace_event shape *)
  let contains sub =
    let ls = String.length sub and ln = String.length json in
    let rec go i = i + ls <= ln && (String.sub json i ls = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"");
  Alcotest.(check bool) "has complete events" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "has instants" true (contains "\"ph\":\"i\"")

let test_span_coverage () =
  (* A contended Morty run must show every transaction phase, the decide
     marker, and at least one re-execution span. *)
  let r, obs = run_traced ~clients:8 ~seed:7 () in
  Alcotest.(check bool) "some commits" true (r.Harness.Stats.r_committed > 0);
  Alcotest.(check bool) "some re-execution happened" true
    (r.Harness.Stats.r_reexecs_per_txn > 0.);
  let names = Hashtbl.create 16 in
  List.iter
    (fun (e : Obs.Sink.event) ->
      Hashtbl.replace names (e.ev_name, e.ev_ph = Obs.Sink.Complete) true)
    (Obs.Sink.events obs);
  let has name complete =
    if not (Hashtbl.mem names (name, complete)) then
      Alcotest.failf "no %s %s in trace" name
        (if complete then "span" else "instant")
  in
  has "begin" false;
  has "execute" true;
  has "reexecute" true;
  (* the re-execution span *)
  has "reexecute" false;
  has "prepare" true;
  has "decide" false;
  has "commit" false;
  has "read" true;
  has "txn" true;
  (* The fast path commits without a Finalize round, so finalize spans
     need a forced-slow-path run. *)
  let obs_slow = Obs.Sink.create ~seed:7 in
  let cfg =
    { Morty.Config.default with always_slow_path = true; reexecution = true }
  in
  ignore
    (Harness.Run.run_morty_with_config ~obs:(Obs.Bus.create ~sink:obs_slow ())
       (traced_exp ~clients:8 ~seed:7 ())
       cfg);
  let slow_has_finalize =
    List.exists
      (fun (e : Obs.Sink.event) ->
        e.ev_name = "finalize" && e.ev_ph = Obs.Sink.Complete)
      (Obs.Sink.events obs_slow)
  in
  Alcotest.(check bool) "finalize span on slow path" true slow_has_finalize

let test_metrics_samples () =
  let _, obs = run_traced () in
  let samples = Obs.Sink.samples obs in
  Alcotest.(check bool) "sampled" true (List.length samples > 0);
  (* 3 replicas sampled every 10 ms over a 120 ms horizon *)
  List.iter
    (fun (s : Obs.Sink.sample) ->
      if s.sm_ts <= 0 || s.sm_ts > 120_000 then
        Alcotest.failf "sample ts out of range: %d" s.sm_ts;
      if s.sm_cpu_busy < 0. || s.sm_cpu_busy > 1. then
        Alcotest.failf "cpu busy out of range: %f" s.sm_cpu_busy;
      if s.sm_queue < 0 || s.sm_records < 0 || s.sm_versions < 0 then
        Alcotest.fail "negative gauge")
    samples;
  let csv = Obs.Metrics.to_csv obs in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one row per sample"
    (1 + List.length samples) (List.length lines)

(* Every abort a run reports is classified: the taxonomy counters sum to
   the headline abort count on all four systems. *)
let test_abort_sum_invariant () =
  List.iter
    (fun system ->
      let r =
        Harness.Run.run_exp (traced_exp ~system ~clients:12 ~seed:3 ())
      in
      let by_sum =
        List.fold_left (fun a (_, n) -> a + n) 0 r.Harness.Stats.r_aborts_by
      in
      Alcotest.(check int)
        (Harness.Run.system_name system ^ ": aborts_by sums to r_aborted")
        r.Harness.Stats.r_aborted by_sum;
      List.iter
        (fun (_, n) -> if n < 0 then Alcotest.fail "negative abort counter")
        r.Harness.Stats.r_aborts_by)
    Harness.Run.all_systems

let test_events_by_kind () =
  let e = traced_exp ~clients:4 ~seed:2 () in
  let plain = Harness.Run.run_exp e in
  Alcotest.(check bool) "deliveries happen" true
    (plain.Harness.Stats.r_events.Harness.Stats.ev_deliveries > 0);
  Alcotest.(check bool) "timers happen" true
    (plain.Harness.Stats.r_events.Harness.Stats.ev_timers > 0);
  Alcotest.(check int) "no ticker without a sink" 0
    plain.Harness.Stats.r_events.Harness.Stats.ev_tickers;
  let traced =
    Harness.Run.run_exp ~obs:(Obs.Bus.create ~sink:(Obs.Sink.create ~seed:2) ()) e
  in
  Alcotest.(check bool) "metrics ticker fires when traced" true
    (traced.Harness.Stats.r_events.Harness.Stats.ev_tickers > 0);
  (* tickers are extra events; timer/delivery counts must not move *)
  Alcotest.(check int) "deliveries unchanged"
    plain.Harness.Stats.r_events.Harness.Stats.ev_deliveries
    traced.Harness.Stats.r_events.Harness.Stats.ev_deliveries;
  Alcotest.(check int) "timers unchanged"
    plain.Harness.Stats.r_events.Harness.Stats.ev_timers
    traced.Harness.Stats.r_events.Harness.Stats.ev_timers

let test_csv_row_shape () =
  let r = Harness.Run.run_exp (traced_exp ~clients:4 ~seed:4 ()) in
  let fields s = List.length (String.split_on_char ',' s) in
  Alcotest.(check int) "row matches header"
    (fields Harness.Stats.csv_header)
    (fields (Harness.Stats.to_csv_row r))

let suites =
  [
    ( "obs-hist",
      [
        Alcotest.test_case "empty" `Quick test_hist_empty;
        Alcotest.test_case "single sample exact" `Quick test_hist_single;
        Alcotest.test_case "accuracy" `Quick test_hist_accuracy;
        Alcotest.test_case "pinned interpolation" `Quick
          test_hist_interpolation_pinned;
        Alcotest.test_case "monotone percentiles" `Quick test_hist_monotone;
        Alcotest.test_case "stats percentile edges" `Quick
          test_stats_percentile_edges;
      ] );
    ( "obs-taxonomy",
      [
        Alcotest.test_case "complete and bijective" `Quick test_taxonomy_complete;
        Alcotest.test_case "prefer ranks causes" `Quick test_taxonomy_prefer;
      ] );
    ( "obs-trace",
      [
        Alcotest.test_case "golden double-run" `Quick test_trace_golden;
        Alcotest.test_case "valid chrome JSON" `Quick test_trace_valid_json;
        Alcotest.test_case "span coverage incl. reexecute" `Quick
          test_span_coverage;
        Alcotest.test_case "metrics samples" `Quick test_metrics_samples;
      ] );
    ( "obs-accounting",
      [
        Alcotest.test_case "abort sum invariant" `Quick test_abort_sum_invariant;
        Alcotest.test_case "events by kind" `Quick test_events_by_kind;
        Alcotest.test_case "csv row shape" `Quick test_csv_row_shape;
      ] );
  ]
