(* Run ledger: serialization round-trip, artifact error taxonomy, and
   the variance-aware regression gate — an injected goodput regression
   must fire with statistical significance while a disjoint seed set on
   identical code must not. *)

let mk_entry ?(point = "p") sys det =
  { Obs.Ledger.en_system = sys; en_point = point; en_det = det }

let mk_ledger ?(config = "test config v1") ?(seeds = [ 1; 2; 3; 4; 5 ]) entries
    =
  Obs.Ledger.make ~config ~seeds entries

(* --- serialization ------------------------------------------------------- *)

let test_round_trip () =
  let l =
    mk_ledger
      [
        mk_entry "morty"
          [ ("goodput", [| 100.5; 101.25; 99.875 |]); ("p99_ms", [| 3.5 |]) ];
        mk_entry "mvtso" [ ("goodput", [| 50.; 51.; 49. |]) ];
      ]
  in
  match Obs.Ledger.parse (Obs.Ledger.to_json l) with
  | Error e -> Alcotest.failf "round trip: %s" (Obs.Ledger.error_to_string e)
  | Ok l' ->
    Alcotest.(check int) "schema" Obs.Ledger.schema_version
      l'.Obs.Ledger.manifest.Obs.Ledger.m_schema;
    Alcotest.(check string) "config hash"
      l.Obs.Ledger.manifest.Obs.Ledger.m_config
      l'.Obs.Ledger.manifest.Obs.Ledger.m_config;
    Alcotest.(check (list int)) "seeds" [ 1; 2; 3; 4; 5 ]
      l'.Obs.Ledger.manifest.Obs.Ledger.m_seeds;
    Alcotest.(check bool) "entries identical" true
      (l.Obs.Ledger.entries = l'.Obs.Ledger.entries)

let test_round_trip_exact_floats () =
  (* Awkward floats must survive the emit/parse cycle bit-for-bit. *)
  let vals = [| 0.1; 1. /. 3.; 1e-12; 123456789.123456789; 6.02e23 |] in
  let l = mk_ledger [ mk_entry "s" [ ("m", vals) ] ] in
  match Obs.Ledger.parse (Obs.Ledger.to_json l) with
  | Error e -> Alcotest.failf "parse: %s" (Obs.Ledger.error_to_string e)
  | Ok l' -> (
    match l'.Obs.Ledger.entries with
    | [ e ] ->
      let got = List.assoc "m" e.Obs.Ledger.en_det in
      Array.iteri
        (fun i v ->
          Alcotest.(check bool)
            (Printf.sprintf "float %d exact" i)
            true
            (Int64.bits_of_float v = Int64.bits_of_float got.(i)))
        vals
    | _ -> Alcotest.fail "entry count")

(* A ledger written before host metrics left the artifact: one entry
   with a per-entry "host" object next to "det". *)
let legacy_ledger ~wall =
  Printf.sprintf
    "{\"schema\": 1, \"config\": \"c\", \"seeds\": [1,2,3,4,5], \
     \"describe\": \"v1\", \"entries\": [{\"system\":\"morty\",\
     \"point\":\"p\",\"det\":{\"goodput\":[100,102,98,101,99]},\
     \"host\":{\"wall_s\":[%s]}}]}"
    (String.concat "," (List.map string_of_float wall))

let parse_ok s =
  match Obs.Ledger.parse s with
  | Ok l -> l
  | Error e -> Alcotest.failf "parse: %s" (Obs.Ledger.error_to_string e)

let test_det_json_drops_host () =
  let l = parse_ok (legacy_ledger ~wall:[ 0.1; 0.2; 0.3; 0.4; 0.5 ]) in
  let det = Obs.Ledger.det_json l in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has det metric" true (contains "goodput" det);
  Alcotest.(check bool) "no host metric" false (contains "wall_s" det);
  Alcotest.(check bool) "no describe" false (contains "describe" det);
  Alcotest.(check bool) "re-emitted json drops host" false
    (contains "wall_s" (Obs.Ledger.to_json l))

(* --- error taxonomy ------------------------------------------------------ *)

let check_error name expect = function
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error e ->
    Alcotest.(check int)
      (name ^ " exit code")
      expect
      (Obs.Ledger.error_exit_code e)

let test_parse_errors () =
  check_error "empty string" 4 (Obs.Ledger.parse "");
  check_error "blank" 4 (Obs.Ledger.parse "  \n ");
  check_error "zero entries" 4
    (Obs.Ledger.parse
       "{\"schema\": 1, \"config\": \"x\", \"seeds\": [1], \"entries\": []}");
  check_error "malformed" 4 (Obs.Ledger.parse "{\"schema\": 1, ");
  check_error "not a ledger" 4 (Obs.Ledger.parse "[1,2,3]");
  check_error "future schema" 5
    (Obs.Ledger.parse
       "{\"schema\": 99, \"config\": \"x\", \"seeds\": [1], \"entries\": \
        [{\"system\":\"s\",\"point\":\"p\",\"det\":{},\"host\":{}}]}");
  check_error "missing file" 3 (Obs.Ledger.load "/nonexistent/ledger.json")

(* --- the gate ------------------------------------------------------------ *)

let base_goodput = [| 100.; 102.; 98.; 101.; 99. |]

let find c sys metric =
  match
    List.find_opt
      (fun v ->
        v.Obs.Ledger.v_system = sys && v.Obs.Ledger.v_metric = metric)
      c.Obs.Ledger.c_verdicts
  with
  | Some v -> v
  | None -> Alcotest.failf "no verdict for %s/%s" sys metric

let test_injected_regression_fires () =
  (* The acceptance fixture: goodput scaled by 0.8 across every seed.
     The scaled samples fully separate from the baseline (worst scaled
     = 81.6 < best base = 98), the bootstrap CIs are disjoint, and the
     20% shift is far beyond the 3% floor — REGRESS, with the U test
     itself significant (single gated metric, alpha 0.05 > p ~ 0.012
     at 5v5). *)
  let baseline = mk_ledger [ mk_entry "morty" [ ("goodput", base_goodput) ] ] in
  let current =
    mk_ledger
      [ mk_entry "morty" [ ("goodput", Array.map (fun x -> x *. 0.8) base_goodput) ] ]
  in
  let c = Obs.Ledger.compare_ledgers ~baseline ~current () in
  Alcotest.(check bool) "config match" true c.Obs.Ledger.c_config_match;
  Alcotest.(check int) "one regression" 1 c.Obs.Ledger.c_regressions;
  let v = find c "morty" "goodput" in
  Alcotest.(check string) "verdict" "REGRESS"
    (Obs.Ledger.verdict_to_string v.Obs.Ledger.v_verdict);
  Alcotest.(check bool) "statistically significant" true
    (v.Obs.Ledger.v_p <= c.Obs.Ledger.c_alpha_effective);
  Alcotest.(check bool) "full separation" true
    (Float.abs v.Obs.Ledger.v_effect >= 1.);
  Alcotest.(check bool) "shift ~ -20%" true
    (v.Obs.Ledger.v_rel_delta < -0.15 && v.Obs.Ledger.v_rel_delta > -0.25);
  (* The explainer must produce an account for the fired gate. *)
  match Obs.Ledger.explain_metric c ~system:"morty" ~metric:"goodput" with
  | None -> Alcotest.fail "no explanation"
  | Some s -> Alcotest.(check bool) "explains REGRESS" true
      (String.length s > 0)

let test_small_shift_drifts () =
  (* Fully separated but a shift below the 3% floor: flagged DRIFT,
     never REGRESS — deterministic metrics move for benign reasons
     (e.g. an intentional scheduling tweak) and only material shifts
     fail CI.  The baseline spread must be tighter than the shift for
     full separation to even be possible. *)
  let tight = [| 100.; 100.5; 99.5; 100.25; 99.75 |] in
  let baseline = mk_ledger [ mk_entry "morty" [ ("goodput", tight) ] ] in
  let current =
    mk_ledger
      [ mk_entry "morty" [ ("goodput", Array.map (fun x -> x *. 0.98) tight) ] ]
  in
  let c = Obs.Ledger.compare_ledgers ~baseline ~current () in
  Alcotest.(check int) "no regression" 0 c.Obs.Ledger.c_regressions;
  let v = find c "morty" "goodput" in
  Alcotest.(check string) "verdict" "DRIFT"
    (Obs.Ledger.verdict_to_string v.Obs.Ledger.v_verdict)

let test_identical_pass () =
  let l = mk_ledger [ mk_entry "morty" [ ("goodput", base_goodput) ] ] in
  let c = Obs.Ledger.compare_ledgers ~baseline:l ~current:l () in
  Alcotest.(check int) "no regressions" 0 c.Obs.Ledger.c_regressions;
  Alcotest.(check int) "no drifts" 0 c.Obs.Ledger.c_drifts;
  let v = find c "morty" "goodput" in
  Alcotest.(check string) "verdict" "PASS"
    (Obs.Ledger.verdict_to_string v.Obs.Ledger.v_verdict)

let test_missing_and_new_metrics () =
  let baseline =
    mk_ledger
      [ mk_entry "morty" [ ("goodput", base_goodput); ("gone", [| 1. |]) ] ]
  in
  let current =
    mk_ledger
      [ mk_entry "morty" [ ("goodput", base_goodput); ("fresh", [| 2. |]) ] ]
  in
  let c = Obs.Ledger.compare_ledgers ~baseline ~current () in
  Alcotest.(check string) "missing metric drifts" "DRIFT"
    (Obs.Ledger.verdict_to_string (find c "morty" "gone").Obs.Ledger.v_verdict);
  Alcotest.(check string) "new metric informational" "info"
    (Obs.Ledger.verdict_to_string (find c "morty" "fresh").Obs.Ledger.v_verdict);
  Alcotest.(check int) "missing is not fatal" 0 c.Obs.Ledger.c_regressions

let test_host_gating () =
  (* Host metrics in an older ledger never gate: a 10x wall-clock blow-up
     is dropped on parse, not compared. *)
  let baseline = parse_ok (legacy_ledger ~wall:[ 0.1; 0.2; 0.3; 0.4; 0.5 ]) in
  let current = parse_ok (legacy_ledger ~wall:[ 1.; 2.; 3.; 4.; 5. ]) in
  let c = Obs.Ledger.compare_ledgers ~baseline ~current () in
  Alcotest.(check int) "wall never regresses" 0 c.Obs.Ledger.c_regressions;
  Alcotest.(check (list string)) "only det metrics compared" [ "goodput" ]
    (List.map (fun v -> v.Obs.Ledger.v_metric) c.Obs.Ledger.c_verdicts)

let test_config_mismatch_detected () =
  let a = mk_ledger ~config:"cfg A" [ mk_entry "s" [ ("m", [| 1. |]) ] ] in
  let b = mk_ledger ~config:"cfg B" [ mk_entry "s" [ ("m", [| 1. |]) ] ] in
  let c = Obs.Ledger.compare_ledgers ~baseline:a ~current:b () in
  Alcotest.(check bool) "mismatch flagged" false c.Obs.Ledger.c_config_match

(* --- disjoint seed sets on identical code -------------------------------- *)

let real_entry seeds =
  (* A genuinely contended point, small enough for a unit test: the
     ledger projection of real runs, deterministic per seed. *)
  let rows =
    List.map
      (fun seed ->
        let e =
          {
            Harness.Run.default_exp with
            e_system = Harness.Run.Morty;
            e_workload =
              Harness.Run.Ycsb
                { Workload.Ycsb.default_conf with n_keys = 200 };
            e_clients = 8;
            e_cores = 2;
            e_warmup_us = 20_000;
            e_measure_us = 100_000;
            e_seed = seed;
            e_label = Printf.sprintf "ledger-test/s%d" seed;
          }
        in
        Harness.Stats.ledger_metrics (Harness.Run.run_exp e))
      seeds
  in
  Obs.Ledger.entry ~system:"morty" ~point:"ycsb-test" rows

let test_disjoint_seeds_pass () =
  (* Same code, same config, different seed sets: run-to-run variance
     only.  The gate must not fire — this is exactly the situation the
     statistics exist for (a hand tolerance on any single metric would
     be either too loose to catch regressions or too tight to survive
     reseeding). *)
  let seeds_a = [ 1; 2; 3; 4; 5 ] and seeds_b = [ 11; 12; 13; 14; 15 ] in
  let baseline = mk_ledger ~seeds:seeds_a [ real_entry seeds_a ] in
  let current = mk_ledger ~seeds:seeds_b [ real_entry seeds_b ] in
  let c = Obs.Ledger.compare_ledgers ~baseline ~current () in
  Alcotest.(check bool) "config match" true c.Obs.Ledger.c_config_match;
  Alcotest.(check bool) "seed sets differ" false c.Obs.Ledger.c_seeds_match;
  List.iter
    (fun v ->
      if v.Obs.Ledger.v_verdict = Obs.Ledger.Regress then
        Alcotest.failf "spurious regression on %s (p=%.4f effect=%+.2f rel=%+.3f)"
          v.Obs.Ledger.v_metric v.Obs.Ledger.v_p v.Obs.Ledger.v_effect
          v.Obs.Ledger.v_rel_delta)
    c.Obs.Ledger.c_verdicts;
  Alcotest.(check int) "no regressions" 0 c.Obs.Ledger.c_regressions

let suites =
  [
    ( "ledger",
      [
        Alcotest.test_case "round trip" `Quick test_round_trip;
        Alcotest.test_case "round trip exact floats" `Quick
          test_round_trip_exact_floats;
        Alcotest.test_case "det json excludes host" `Quick
          test_det_json_drops_host;
        Alcotest.test_case "parse errors + exit codes" `Quick test_parse_errors;
        Alcotest.test_case "injected regression fires" `Quick
          test_injected_regression_fires;
        Alcotest.test_case "small shift drifts" `Quick test_small_shift_drifts;
        Alcotest.test_case "identical ledgers pass" `Quick test_identical_pass;
        Alcotest.test_case "missing and new metrics" `Quick
          test_missing_and_new_metrics;
        Alcotest.test_case "host gating" `Quick test_host_gating;
        Alcotest.test_case "config mismatch" `Quick
          test_config_mismatch_detected;
        Alcotest.test_case "disjoint seeds pass" `Quick
          test_disjoint_seeds_pass;
      ] );
  ]
