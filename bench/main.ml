(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5), plus ablations of Morty's design choices and a
   Bechamel micro-benchmark suite for the core data structures.

   Usage:  dune exec bench/main.exe [-- [FLAGS] TARGET ...]
   Targets: table1 table2 table3 fig6 fig7 fig8 fig9 headline ablation
            micro all (default: all), plus the regression gate:
            bench-baseline (print a multi-seed run ledger) and
            bench-check FILE (byte-compare it with a committed ledger).
            Run `help` for the full list and flags.

   --jobs N fans independent experiment points across N worker domains
   (0 = recommended_domain_count - 1); every table, figure, CSV and
   baseline check is byte-identical to --jobs 1 because results merge
   in submission order and all throughput reporting goes to stderr.

   Environment: MORTY_BENCH_MEASURE_MS overrides the per-point
   measurement window (virtual milliseconds, default 1000);
   MORTY_BENCH_CSV_DIR, when set, additionally writes one CSV per
   section into that directory (for plotting). *)

open Harness

let jobs = ref 1

let pool = ref None

(* Evaluate a list of independent experiment thunks, preserving list
   order in the results.  Serial (--jobs 1) runs them inline — the
   ground-truth path; parallel fans them across a lazily-created
   orchestrator pool.  Either way the caller renders results in
   submission order, so stdout and the CSVs never depend on --jobs. *)
let par_map thunks =
  if !jobs <= 1 then List.map (fun f -> f ()) thunks
  else
    let p =
      match !pool with
      | Some p -> p
      | None ->
        let p = Orchestrate.Pool.create ~jobs:!jobs in
        pool := Some p;
        p
    in
    Orchestrate.Pool.map p (fun f -> f ()) thunks

let measure_us =
  match Sys.getenv_opt "MORTY_BENCH_MEASURE_MS" with
  | Some s -> (try int_of_string s * 1000 with Failure _ -> 1_000_000)
  | None -> 1_000_000

(* The seed set: every bench point derives its PRNG seed(s) from here.
   --seed-base moves the whole set; the ledger replicates over five
   seeds from it, tables and figures use the base seed alone. *)
let seed_base = ref 42

let seed_set () = List.init 5 (fun i -> !seed_base + i)

let base_exp () =
  {
    Run.default_exp with
    e_warmup_us = 300_000;
    e_measure_us = measure_us;
    e_seed = !seed_base;
  }

let tpcc_conf = Workload.Tpcc.default_conf

let retwis_conf theta = { Workload.Retwis.n_keys = 100_000; theta }

let csv_dir = Sys.getenv_opt "MORTY_BENCH_CSV_DIR"

let csv_channel = ref None

let open_csv name =
  match csv_dir with
  | None -> ()
  | Some dir ->
    (match !csv_channel with Some oc -> close_out oc | None -> ());
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let oc = open_out (Filename.concat dir (name ^ ".csv")) in
    output_string oc (Stats.csv_header ^ "\n");
    csv_channel := Some oc

let header () = Fmt.pr "%a@." Stats.pp_result_header ()

let n_rows = ref 0

let n_events = ref 0

let show r =
  incr n_rows;
  let ev = r.Stats.r_events in
  n_events :=
    !n_events + ev.Stats.ev_timers + ev.Stats.ev_deliveries
    + ev.Stats.ev_tickers;
  Fmt.pr "%a@." Stats.pp_result r;
  match !csv_channel with
  | Some oc ->
    output_string oc (Stats.to_csv_row r ^ "\n");
    flush oc
  | None -> ()

let section title = Fmt.pr "@.=== %s ===@." title

(* ------------------------------------------------------------------ *)
(* Table 1: coordinator vote aggregation rules.                        *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: vote aggregation (f = 1, 2f+1 = 3 replicas)";
  Fmt.pr "%-40s -> %s@." "votes received" "decision";
  let show votes label =
    let agg = Morty.Vote.aggregate ~f:1 ~force:false votes in
    Fmt.pr "%-40s -> %a@." label Morty.Vote.pp_aggregate agg
  in
  show [ Commit; Commit; Commit ] "3x Commit (2f+1)";
  show [ Commit; Commit ] "2x Commit (f+1, waiting)";
  let forced = Morty.Vote.aggregate ~f:1 ~force:true [ Commit; Commit ] in
  Fmt.pr "%-40s -> %a@." "2x Commit (f+1, all in / timeout)"
    Morty.Vote.pp_aggregate forced;
  show [ Commit; Commit; Abandon_tentative ] "2x Commit + 1x Abandon-Tentative";
  show [ Abandon_final ] "1x Abandon-Final";
  show
    [ Commit; Abandon_tentative; Abandon_tentative ]
    "1x Commit + 2x Abandon-Tentative"

(* ------------------------------------------------------------------ *)
(* Table 2: cross-region RTTs.                                         *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: cross-region RTTs in emulated networks (ms)";
  List.iter
    (fun (row, cols) ->
      Fmt.pr "%-12s" row;
      List.iter (fun (_, ms) -> Fmt.pr " %6d" ms) cols;
      Fmt.pr "@.")
    Simnet.Latency.table2;
  Fmt.pr
    "setups: REG = 3 AZs at 10ms RTT; CON = us-east-1/us-west-1/us-west-2; \
     GLO = us-east-1/us-west-1/eu-west-1@."

(* ------------------------------------------------------------------ *)
(* Table 3: transaction mixes.                                         *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3a: TPC-C transaction mix";
  List.iter
    (fun (k, pct) -> Fmt.pr "  %-14s %3d%%@." (Workload.Tpcc.kind_name k) pct)
    Workload.Tpcc.mix;
  section "Table 3b: Retwis transaction mix";
  List.iter
    (fun (k, pct) -> Fmt.pr "  %-14s %3d%%@." (Workload.Retwis.kind_name k) pct)
    Workload.Retwis.mix

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7: goodput vs latency curves.                         *)
(* ------------------------------------------------------------------ *)

let curve ~workload ~wl_name ~clients_grid () =
  List.iter
    (fun setup ->
      Fmt.pr "@.--- %s, %s ---@." wl_name (Simnet.Latency.setup_name setup);
      header ();
      let points =
        List.concat_map
          (fun sys ->
            List.map
              (fun n () ->
                Run.run_exp
                  {
                    (base_exp ()) with
                    e_system = sys;
                    e_setup = setup;
                    e_workload = workload;
                    e_clients = n;
                    e_label =
                      Printf.sprintf "%s %s c=%d" (Run.system_name sys)
                        (Simnet.Latency.setup_name setup) n;
                  })
              clients_grid)
          Run.all_systems
      in
      List.iter show (par_map points))
    [ Simnet.Latency.Reg; Simnet.Latency.Con; Simnet.Latency.Glo ]

let fig6 () =
  open_csv "fig6";
  section "Figure 6: TPC-C goodput vs latency (10 warehouses scaled)";
  curve ~workload:(Run.Tpcc tpcc_conf) ~wl_name:"tpcc"
    ~clients_grid:[ 32; 128; 384 ] ()

let fig7 () =
  open_csv "fig7";
  section "Figure 7: Retwis goodput vs latency (100k keys, zipf 0.9)";
  curve
    ~workload:(Run.Retwis (retwis_conf 0.9))
    ~wl_name:"retwis" ~clients_grid:[ 32; 128; 384 ] ()

(* ------------------------------------------------------------------ *)
(* Figure 8: multi-core scalability.                                   *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  open_csv "fig8";
  section "Figure 8: multi-core scalability on Retwis (REG)";
  List.iter
    (fun theta ->
      Fmt.pr "@.--- zipf theta = %.1f ---@." theta;
      header ();
      let systems =
        if theta = 0. then Run.all_systems @ [ Run.Tapir_nodist ]
        else Run.all_systems
      in
      let points =
        List.concat_map
          (fun sys ->
            List.map
              (fun cores () ->
                Run.run_exp
                  {
                    (base_exp ()) with
                    e_system = sys;
                    e_workload = Run.Retwis (retwis_conf theta);
                    e_cores = cores;
                    e_clients = 56 * cores;
                    e_label =
                      Printf.sprintf "%s cores=%d" (Run.system_name sys) cores;
                  })
              [ 1; 2; 4; 8 ])
          systems
      in
      List.iter show (par_map points))
    [ 0.0; 0.9 ]

(* ------------------------------------------------------------------ *)
(* Figure 9: varying contention.                                       *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  open_csv "fig9";
  section "Figure 9: goodput and commit rate vs Zipf coefficient (REG)";
  header ();
  let points =
    List.concat_map
      (fun sys ->
        List.map
          (fun theta () ->
            Run.run_exp
              {
                (base_exp ()) with
                e_system = sys;
                e_workload = Run.Retwis (retwis_conf theta);
                e_clients = 192;
                e_label =
                  Printf.sprintf "%s theta=%.1f" (Run.system_name sys) theta;
              })
          [ 0.0; 0.3; 0.6; 0.9; 1.2 ])
      Run.all_systems
  in
  List.iter show (par_map points)

(* ------------------------------------------------------------------ *)
(* Headline: the abstract's throughput ratios.                         *)
(* ------------------------------------------------------------------ *)

let peak sys workload label =
  Run.find_peak ~runner:par_map
    (fun n ->
      {
        (base_exp ()) with
        e_system = sys;
        e_workload = workload;
        e_clients = n;
        e_label = label;
      })
    ~client_counts:[ 64; 128; 256 ]

let headline () =
  open_csv "headline";
  section "Headline (paper abstract): peak TPC-C goodput ratios";
  header ();
  let results =
    List.map
      (fun sys ->
        let r = peak sys (Run.Tpcc tpcc_conf) (Run.system_name sys) in
        show r;
        (sys, r))
      Run.all_systems
  in
  match List.assoc_opt Run.Morty results with
  | Some m ->
    List.iter
      (fun (sys, r) ->
        if sys <> Run.Morty && r.Stats.r_goodput > 0. then
          Fmt.pr "Morty / %-8s = %5.1fx  (paper: %s)@." (Run.system_name sys)
            (m.Stats.r_goodput /. r.Stats.r_goodput)
            (match sys with
             | Run.Mvtso -> "1.7x"
             | Run.Tapir -> "4.4x"
             | Run.Spanner -> "7.4x"
             | Run.Morty | Run.Tapir_nodist -> "-"))
      results
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Ablations of Morty's design choices.                                *)
(* ------------------------------------------------------------------ *)

let ablation () =
  open_csv "ablation";
  section "Ablations (Retwis zipf 0.9, REG, 128 clients, 4 cores)";
  header ();
  let e label =
    {
      (base_exp ()) with
      e_workload = Run.Retwis (retwis_conf 0.9);
      e_clients = 128;
      e_label = label;
    }
  in
  let d = Morty.Config.default in
  let variants =
    [
      ("morty (full)", d);
      ("no re-execution (mvtso)", { d with Morty.Config.reexecution = false });
      ("commit-time visibility", { d with Morty.Config.eager_writes = false });
      ("re-exec cap = 1", { d with Morty.Config.max_reexecs = 1 });
      ("no fast path", { d with Morty.Config.always_slow_path = true });
    ]
  in
  List.iter show
    (par_map
       (List.map
          (fun (label, cfg) () -> Run.run_morty_with_config (e label) cfg)
          variants));
  Fmt.pr "@.backoff policy (MVTSO baseline, same workload):@.";
  let mv = { d with Morty.Config.reexecution = false } in
  List.iter show
    (par_map
       (List.map
          (fun (label, base) () ->
            Run.run_morty_with_config
              { (e label) with e_backoff_base_us = base }
              mv)
          [
            ("backoff base 0 (immediate retry)", 0);
            ("backoff base 10ms", 10_000);
            ("backoff base 100ms", 100_000);
            ("backoff base 500ms", 500_000);
          ]))

(* ------------------------------------------------------------------ *)
(* YCSB extension: conflict-rate sweep (read% x all four systems).     *)
(* ------------------------------------------------------------------ *)

let ycsb () =
  open_csv "ycsb";
  section "YCSB extension: goodput vs write fraction (theta 0.9, REG, 128 clients)";
  header ();
  let points =
    List.concat_map
      (fun sys ->
        List.map
          (fun read_pct () ->
            Run.run_exp
              {
                (base_exp ()) with
                e_system = sys;
                e_workload =
                  Run.Ycsb { Workload.Ycsb.default_conf with read_pct };
                e_clients = 128;
                e_label =
                  Printf.sprintf "%s reads=%d%%" (Run.system_name sys) read_pct;
              })
          [ 100; 95; 50; 0 ])
      Run.all_systems
  in
  List.iter show (par_map points)

(* ------------------------------------------------------------------ *)
(* Failover timeline (extension): goodput around a replica outage.     *)
(* ------------------------------------------------------------------ *)

let failover () =
  section "Failover extension: Morty goodput around a 1s replica outage (REG)";
  let e =
    {
      (base_exp ()) with
      e_workload = Run.Retwis (retwis_conf 0.5);
      e_clients = 96;
      e_warmup_us = 0;
      e_measure_us = 4_000_000;
    }
  in
  let buckets =
    Run.run_failover e ~crash_at_us:1_000_000 ~recover_at_us:2_000_000
      ~bucket_us:250_000
  in
  Fmt.pr "time(ms)  committed/bucket   (replica down between 1000ms and 2000ms)@.";
  List.iter
    (fun (t, c) ->
      let marker = if t >= 1_000_000 && t < 2_000_000 then " <- outage" else "" in
      Fmt.pr "%8d  %6d%s@." (t / 1000) c marker)
    buckets;
  Fmt.pr
    "With 2f+1 = 3 replicas, losing one forces the slow path (Finalize)@.\
     but goodput recovers immediately after the outage heals.@."

(* ------------------------------------------------------------------ *)
(* SmallBank extension: the write-skew banking mix on all systems.     *)
(* ------------------------------------------------------------------ *)

let smallbank () =
  open_csv "smallbank";
  section "SmallBank extension (1000 customers, REG, 64 clients)";
  header ();
  let points =
    List.concat_map
      (fun theta ->
        List.map
          (fun sys () ->
            Run.run_exp
              {
                (base_exp ()) with
                e_system = sys;
                e_workload =
                  Run.Smallbank { Workload.Smallbank.default_conf with theta };
                e_clients = 64;
                e_label =
                  Printf.sprintf "%s theta=%.1f" (Run.system_name sys) theta;
              })
          Run.all_systems)
      [ 0.5; 0.9 ]
  in
  List.iter show (par_map points);
  Fmt.pr
    "@.At theta=0.5 re-execution wins; at theta=0.9 SmallBank's multi-key@.\
     RMWs on a ~10%%-hot customer sit past the convoy crossover where@.\
     abort-and-retry (MVTSO) outruns chained re-execution — see@.\
     EXPERIMENTS.md, known divergence 2.@." 


(* ------------------------------------------------------------------ *)
(* Run ledger: the multi-seed bench-regression artifact.               *)
(*                                                                     *)
(* `bench-baseline` replicates one fixed high-contention point (the    *)
(* contended end of Fig. 9: YCSB, 1k keys, Zipf theta 1.2, 48 clients, *)
(* 2 cores) across the seed set on all four systems, fanned over       *)
(* --jobs worker domains, and prints the run ledger (Obs.Ledger) on    *)
(* stdout; the output is committed as bench/LEDGER.json.  Every metric *)
(* is a per-seed sample array (goodput, latency percentiles, commit/   *)
(* abort/re-exec counters, engine event + heap counters, lineage       *)
(* digest, profile fractions), a pure function of the simulated        *)
(* schedule: byte-identical across hosts and --jobs.  perfbench        *)
(* measures host speed.                                                *)
(*                                                                     *)
(* `bench-check FILE` renders a fresh ledger and passes only when FILE *)
(* equals it byte for byte; otherwise it names the first differing     *)
(* system, metric and seed with both values.  Wired into `dune         *)
(* runtest` via the bench-smoke alias; refresh the baseline with       *)
(*   dune exec bench/main.exe -- bench-baseline > bench/LEDGER.json    *)
(* when a change is intentional (see EXPERIMENTS.md, "The exact ledger *)
(* gate").                                                             *)
(* ------------------------------------------------------------------ *)

let gate_exp sys seed =
  {
    Run.default_exp with
    e_system = sys;
    e_workload =
      Run.Ycsb { Workload.Ycsb.default_conf with n_keys = 1_000; theta = 1.2 };
    e_clients = 48;
    e_cores = 2;
    e_warmup_us = 100_000;
    e_measure_us = 300_000;
    e_seed = seed;
    e_label = Printf.sprintf "ledger/%s/s%d" (Run.system_name sys) seed;
  }

let ledger_point = "ycsb-hot"

(* Canonical parameter string of the bench point, the ledger's first
   line; the seed set is its second. *)
let ledger_config () =
  Printf.sprintf
    "ledger point=%s workload=ycsb:n_keys=1000,theta=1.2 clients=48 cores=2 \
     warmup_us=100000 measure_us=300000 systems=%s"
    ledger_point
    (String.concat "," (List.map Run.system_name Run.all_systems))

(* One seed's row: the standard ledger projection of the run plus the
   critical-path profile fractions the old PR4 baseline gated (all
   deterministic — the profiler decomposes virtual time). *)
let ledger_row sys seed =
  let prof = Obs.Profile.create ~label:(Run.system_name sys) () in
  let lineage = Obs.Lineage.create ~label:(Run.system_name sys) () in
  let r =
    Run.run_exp
      ~obs:(Obs.Bus.create ~profile:prof ~lineage_log:lineage ())
      (gate_exp sys seed)
  in
  let w = Obs.Profile.waste prof in
  let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let agg = Obs.Profile.decomposition prof in
  let latency_sum = Array.fold_left ( + ) 0 agg in
  let comp_sum c =
    let s = ref 0 in
    for p = 0 to Obs.Profile.n_phases - 1 do
      s := !s + agg.((p * Obs.Profile.n_comps) + Obs.Profile.comp_index c)
    done;
    !s
  in
  let backoff = comp_sum Obs.Profile.C_backoff in
  let idle = backoff + comp_sum Obs.Profile.C_proto in
  Stats.ledger_metrics r
  @ [
      ("useful_frac", frac w.Obs.Profile.w_useful_us w.Obs.Profile.w_total_us);
      ("salvaged_frac", frac w.Obs.Profile.w_salvaged_us w.Obs.Profile.w_total_us);
      ( "discarded_frac",
        frac w.Obs.Profile.w_discarded_us w.Obs.Profile.w_total_us );
      ("backoff_frac", frac backoff latency_sum);
      ("idle_frac", frac idle latency_sum);
    ]

let build_ledger () =
  let seeds = seed_set () in
  let rows =
    par_map
      (List.concat_map
         (fun sys ->
           List.map
             (fun seed () -> (Run.system_name sys, ledger_row sys seed))
             seeds)
         Run.all_systems)
  in
  let entries =
    List.map
      (fun sys ->
        let name = Run.system_name sys in
        (* submission preserved seed order within each system *)
        let mine =
          List.filter_map
            (fun (s, row) -> if s = name then Some row else None)
            rows
        in
        Obs.Ledger.entry ~system:name ~point:ledger_point mine)
      Run.all_systems
  in
  Obs.Ledger.make ~config:(ledger_config ()) ~seeds entries

let bench_baseline () = print_string (Obs.Ledger.render (build_ledger ()))

let bench_check path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
    Printf.eprintf "bench-check: %s\n" msg;
    exit 3
  | committed -> (
    match Obs.Ledger.first_mismatch ~committed (build_ledger ()) with
    | None -> Printf.printf "bench-check: %s matches the fresh ledger\n" path
    | Some m ->
      Format.printf
        "bench-check: %s differs from the fresh ledger at@.%a\
         A ledger metric changed, so behaviour changed.  If that is \
         intended, refresh the baseline:@.\
        \  dune exec bench/main.exe -- bench-baseline > bench/LEDGER.json@."
        path Obs.Ledger.pp_mismatch m;
      exit 1)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks for the core data structures.             *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (Bechamel; ns per run)";
  let open Bechamel in
  let test_heap =
    Test.make ~name:"event-heap push+pop x100"
      (Staged.stage (fun () ->
           let h = Sim.Heap.create () in
           for i = 0 to 99 do
             Sim.Heap.push h ~time:(i * 7919 mod 1000) ~seq:i ()
           done;
           let rec drain () =
             match Sim.Heap.pop h with Some _ -> drain () | None -> ()
           in
           drain ()))
  in
  let zipf = Sim.Dist.zipf ~n:100_000 ~theta:0.9 in
  let zrng = Sim.Rng.create 17 in
  let test_zipf =
    Test.make ~name:"zipf sample (n=100k)"
      (Staged.stage (fun () -> ignore (Sim.Dist.zipf_sample zipf zrng)))
  in
  let rng = Sim.Rng.create 3 in
  let test_rng =
    Test.make ~name:"splitmix64 next"
      (Staged.stage (fun () -> ignore (Sim.Rng.int64 rng)))
  in
  let vr = Mvstore.Vrecord.create () in
  let () =
    for i = 1 to 64 do
      Mvstore.Vrecord.commit_write vr
        ~ver:(Cc_types.Version.make ~ts:i ~id:0)
        (string_of_int i)
    done
  in
  let test_vrecord =
    Test.make ~name:"vrecord latest_before (64 versions)"
      (Staged.stage (fun () ->
           ignore
             (Mvstore.Vrecord.latest_before vr (Cc_types.Version.make ~ts:40 ~id:0))))
  in
  let test_engine =
    Test.make ~name:"engine schedule+run x100"
      (Staged.stage (fun () ->
           let e = Sim.Engine.create () in
           for i = 1 to 100 do
             ignore (Sim.Engine.schedule e ~after:i (fun () -> ()))
           done;
           Sim.Engine.run e))
  in
  let tests = [ test_heap; test_zipf; test_rng; test_vrecord; test_engine ] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
          instance results
      in
      Hashtbl.iter
        (fun name v ->
          match Analyze.OLS.estimates v with
          | Some [ est ] -> Fmt.pr "  %-40s %10.1f ns/run@." name est
          | Some _ | None -> Fmt.pr "  %-40s (no estimate)@." name)
        ols)
    tests

(* ------------------------------------------------------------------ *)

let all () =
  table1 ();
  table2 ();
  table3 ();
  headline ();
  fig6 ();
  fig7 ();
  fig8 ();
  fig9 ();
  ablation ();
  ycsb ();
  smallbank ();
  failover ();
  micro ()

let usage () =
  print_string
    "usage: dune exec bench/main.exe [-- [FLAGS] TARGET ...]\n\n\
     targets:\n\
    \  table1 table2 table3 fig6 fig7 fig8 fig9 headline ablation\n\
    \  ycsb smallbank failover micro all (default: all)\n\
    \  bench-baseline      print a multi-seed run ledger (commit as\n\
    \                      bench/LEDGER.json)\n\
    \  bench-check FILE    rebuild the ledger and byte-compare it with\n\
    \                      FILE (exit 1 on a difference, 3 if unreadable)\n\
    \  help                this text\n\n\
     flags:\n\
    \  --jobs N               fan points over N worker domains (0 = auto)\n\
    \  --seed-base N          first of the ledger's five seeds (default 42;\n\
    \                         also the seed of every table/figure point)\n"

(* Strip --jobs N / --jobs=N and --seed-base N from the argv
   target list, setting the matching globals; everything else
   dispatches as before.  A malformed value is a usage error (exit 2). *)
let rec parse_flags acc = function
  | [] -> List.rev acc
  | "--jobs" :: n :: rest -> set_jobs n; parse_flags acc rest
  | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
    set_jobs (String.sub arg 7 (String.length arg - 7));
    parse_flags acc rest
  | "--seed-base" :: n :: rest ->
    set_int "--seed-base" seed_base n;
    parse_flags acc rest
  | t :: rest -> parse_flags (t :: acc) rest

and set_jobs s =
  set_int "--jobs" jobs s;
  jobs := if !jobs = 0 then Orchestrate.Pool.default_jobs () else max 1 !jobs

and set_int flag r s =
  match int_of_string_opt s with
  | Some n -> r := n
  | None ->
    Fmt.epr "bad %s value %S (want an integer)@." flag s;
    exit 2

let () =
  let elapsed = Orchestrate.Report.stopwatch () in
  let rec go = function
    | [] -> ()
    | "bench-check" :: path :: rest ->
      bench_check path;
      go rest
    | "bench-check" :: [] ->
      Fmt.epr "bench-check needs a baseline path (see `help`)@.";
      exit 2
    | t :: rest ->
      (match t with
      | "table1" -> table1 ()
      | "table2" -> table2 ()
      | "table3" -> table3 ()
      | "fig6" -> fig6 ()
      | "fig7" -> fig7 ()
      | "fig8" -> fig8 ()
      | "fig9" -> fig9 ()
      | "headline" -> headline ()
      | "ablation" -> ablation ()
      | "ycsb" -> ycsb ()
      | "smallbank" -> smallbank ()
      | "failover" -> failover ()
      | "micro" -> micro ()
      | "bench-baseline" -> bench_baseline ()
      | "help" | "--help" | "-h" -> usage ()
      | "all" -> all ()
      | other ->
        Fmt.epr "unknown bench target %S (see `help`)@." other;
        exit 2);
      go rest
  in
  let targets =
    match parse_flags [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> [ "all" ]
    | ts -> ts
  in
  go targets;
  Option.iter Orchestrate.Pool.shutdown !pool;
  (* Throughput report on stderr only: stdout carries the tables,
     figures, the ledger and the gate result, and must not depend on
     --jobs. *)
  if !n_rows > 0 then
    Fmt.epr "%s@."
      (Orchestrate.Report.to_string
         {
           Orchestrate.Report.o_jobs = !jobs;
           o_runs = !n_rows;
           o_events = !n_events;
           o_wall_s = elapsed ();
         })
