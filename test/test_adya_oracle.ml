(* Oracle-sanity tests: hand-crafted known-anomalous histories must be
   rejected by the Adya serializability oracle with the expected
   violation.  Guards against a vacuously-passing oracle — if Dsg.check
   degraded into "always Ok", the exploration harness's audits would
   silently stop meaning anything. *)

module Version = Cc_types.Version

let v ts id = Version.make ~ts ~id

let txn ?(committed = true) ?(reads = []) ?(writes = []) ver ~start_us ~commit_us =
  { Adya.History.ver; reads; writes; committed; start_us; commit_us }

let history l = Adya.History.of_list l

(* G1a: committed T2 read x from T1, which aborted. *)
let test_aborted_read_rejected () =
  let t1 = txn (v 1 1) ~committed:false ~writes:[ "x" ] ~start_us:0 ~commit_us:(-1) in
  let t2 =
    txn (v 2 2) ~reads:[ ("x", v 1 1) ] ~writes:[] ~start_us:5 ~commit_us:10
  in
  match Adya.Dsg.check (history [ t1; t2 ]) with
  | Error (Adya.Dsg.Aborted_read { reader; writer; key }) ->
    Alcotest.(check string) "key" "x" key;
    Alcotest.(check bool) "reader" true (Version.equal reader (v 2 2));
    Alcotest.(check bool) "writer" true (Version.equal writer (v 1 1))
  | Error (Adya.Dsg.Cycle _) -> Alcotest.fail "expected G1a, got cycle"
  | Ok () -> Alcotest.fail "oracle accepted an aborted read (G1a)"

(* Lost update: T1 and T2 both read x from the initial version and both
   install x.  DSG: T1 -ww-> T2 (version order) and T2 -rw-> T1 (T2's
   read of x_init is overwritten by T1), a G1c/G2 cycle. *)
let test_lost_update_rejected () =
  let t1 =
    txn (v 1 1) ~reads:[ ("x", Version.zero) ] ~writes:[ "x" ] ~start_us:0
      ~commit_us:10
  in
  let t2 =
    txn (v 2 2) ~reads:[ ("x", Version.zero) ] ~writes:[ "x" ] ~start_us:1
      ~commit_us:11
  in
  match Adya.Dsg.check (history [ t1; t2 ]) with
  | Error (Adya.Dsg.Cycle edges) ->
    Alcotest.(check bool) "cycle is non-trivial" true (List.length edges >= 2)
  | Error (Adya.Dsg.Aborted_read _) -> Alcotest.fail "expected cycle, got G1a"
  | Ok () -> Alcotest.fail "oracle accepted a lost update"

(* Write skew (G2): T1 reads y and writes x; T2 reads x and writes y;
   both read the initial versions.  Two anti-dependency edges form a
   cycle of pure rw edges — the classic serializability (but not
   snapshot-isolation) violation. *)
let test_write_skew_rejected () =
  let t1 =
    txn (v 1 1) ~reads:[ ("y", Version.zero) ] ~writes:[ "x" ] ~start_us:0
      ~commit_us:10
  in
  let t2 =
    txn (v 2 2) ~reads:[ ("x", Version.zero) ] ~writes:[ "y" ] ~start_us:0
      ~commit_us:10
  in
  match Adya.Dsg.check (history [ t1; t2 ]) with
  | Error (Adya.Dsg.Cycle edges) ->
    List.iter
      (fun (e : Adya.Dsg.edge) ->
        Alcotest.(check bool) "write-skew cycle is all anti-dependencies" true
          (e.kind = Adya.Dsg.Rw))
      edges
  | Error (Adya.Dsg.Aborted_read _) -> Alcotest.fail "expected cycle, got G1a"
  | Ok () -> Alcotest.fail "oracle accepted write skew (G2)"

(* Control: a serial read-modify-write chain must be accepted — the
   rejection tests above are only meaningful if the oracle still passes
   good histories. *)
let test_serial_chain_accepted () =
  let t1 =
    txn (v 1 1) ~reads:[ ("x", Version.zero) ] ~writes:[ "x" ] ~start_us:0
      ~commit_us:10
  in
  let t2 =
    txn (v 2 2) ~reads:[ ("x", v 1 1) ] ~writes:[ "x" ] ~start_us:20 ~commit_us:30
  in
  let t3 = txn (v 3 3) ~reads:[ ("x", v 2 2) ] ~start_us:40 ~commit_us:50 in
  match Adya.Dsg.check (history [ t1; t2; t3 ]) with
  | Ok () -> ()
  | Error viol ->
    Alcotest.failf "oracle rejected a serial history: %a" Adya.Dsg.pp_violation viol

(* Reads by aborted transactions carry no obligations: an aborted
   transaction may have read from another aborted transaction without
   making the history non-serializable. *)
let test_aborted_reader_ignored () =
  let t1 = txn (v 1 1) ~committed:false ~writes:[ "x" ] ~start_us:0 ~commit_us:(-1) in
  let t2 =
    txn (v 2 2) ~committed:false ~reads:[ ("x", v 1 1) ] ~start_us:5 ~commit_us:(-1)
  in
  match Adya.Dsg.check (history [ t1; t2 ]) with
  | Ok () -> ()
  | Error viol ->
    Alcotest.failf "aborted reader should not violate: %a" Adya.Dsg.pp_violation viol

(* Golden violation text.  Each history below holds at least two cycles,
   so which one [Dsg.check] reports is decided by the edge order and the
   DFS that walks it.  The strings were recorded from the version-order
   scan the per-key index replaced; the explorer prints these cycles in
   its shrunk reproducers, so they must not drift. *)
let golden_cases =
  [
    ( "two lost updates sharing T1",
      [
        txn (v 1 1)
          ~reads:[ ("x", Version.zero); ("y", Version.zero) ]
          ~writes:[ "x"; "y" ] ~start_us:0 ~commit_us:0;
        txn (v 2 2) ~reads:[ ("x", Version.zero) ] ~writes:[ "x" ] ~start_us:0
          ~commit_us:0;
        txn (v 3 3) ~reads:[ ("y", Version.zero) ] ~writes:[ "y" ] ~start_us:0
          ~commit_us:0;
      ],
      "cycle: v(1,1) -ww(x)-> v(2,2) ; v(2,2) -rw(x)-> v(1,1)" );
    ( "rw triangle plus a lost update",
      [
        txn (v 1 1) ~reads:[ ("a", Version.zero) ] ~writes:[ "b" ] ~start_us:0
          ~commit_us:0;
        txn (v 2 2) ~reads:[ ("b", Version.zero) ] ~writes:[ "c" ] ~start_us:0
          ~commit_us:0;
        txn (v 3 3) ~reads:[ ("c", Version.zero) ] ~writes:[ "a" ] ~start_us:0
          ~commit_us:0;
        txn (v 4 4) ~reads:[ ("a", Version.zero) ] ~writes:[ "a" ] ~start_us:0
          ~commit_us:0;
      ],
      "cycle: v(3,3) -ww(a)-> v(4,4) ; v(4,4) -rw(a)-> v(3,3)" );
    ( "two rw pairs, duplicate writes, an aborted writer",
      [
        txn (v 10 1) ~writes:[ "x"; "x"; "y" ] ~start_us:0 ~commit_us:0;
        txn (v 20 2) ~reads:[ ("x", v 10 1) ] ~writes:[ "z" ] ~start_us:0
          ~commit_us:0;
        txn (v 30 3) ~reads:[ ("z", Version.zero) ] ~writes:[ "x" ] ~start_us:0
          ~commit_us:0;
        txn (v 40 4) ~reads:[ ("y", v 10 1) ] ~writes:[ "w" ] ~start_us:0
          ~commit_us:0;
        txn (v 50 5) ~reads:[ ("w", Version.zero) ] ~writes:[ "y"; "y" ]
          ~start_us:0 ~commit_us:0;
        txn (v 60 6) ~committed:false ~reads:[ ("x", Version.zero) ]
          ~writes:[ "x"; "w" ] ~start_us:0 ~commit_us:(-1);
      ],
      "cycle: v(30,3) -rw(z)-> v(20,2) ; v(20,2) -rw(x)-> v(30,3)" );
  ]

let test_golden_violations () =
  List.iter
    (fun (name, txns, expected) ->
      match Adya.Dsg.check (history txns) with
      | Ok () -> Alcotest.failf "%s: accepted" name
      | Error viol ->
        Alcotest.(check string) name expected (Fmt.str "%a" Adya.Dsg.pp_violation viol))
    golden_cases

(* The Explore audit layers sanity invariants over the oracle; make sure
   each fires on crafted inputs rather than passing vacuously. *)
let dummy_result ?(committed = 1) ?(rate = 1.0) () =
  {
    Harness.Stats.r_label = "test";
    r_committed = committed;
    r_aborted = 0;
    r_goodput = 0.;
    r_mean_latency_ms = 0.;
    r_p50_latency_ms = 0.;
    r_p99_latency_ms = 0.;
    r_commit_rate = rate;
    r_cpu_utilization = 0.;
    r_reexecs_per_txn = 0.;
    r_msgs_per_txn = 0.;
    r_aborts_by = [];
    r_exec_ms = 0.;
    r_prepare_ms = 0.;
    r_finalize_ms = 0.;
    r_backoff_ms = 0.;
    r_events = Harness.Stats.no_events;
    r_recovery = Harness.Stats.no_recovery;
    r_avail = Harness.Stats.no_avail;
    r_engstat = Obs.Engstat.zero ~label:"test";
    r_lineage = Harness.Stats.no_lineage;
  }

let test_audit_flags_anomaly () =
  let t1 = txn (v 1 1) ~committed:false ~writes:[ "x" ] ~start_us:0 ~commit_us:(-1) in
  let t2 = txn (v 2 2) ~reads:[ ("x", v 1 1) ] ~start_us:5 ~commit_us:10 in
  match Explore.Audit.check [ t1; t2 ] (dummy_result ()) with
  | Error (Explore.Audit.Not_serializable (Adya.Dsg.Aborted_read _)) -> ()
  | Error viol ->
    Alcotest.failf "wrong violation: %a" Explore.Audit.pp_violation viol
  | Ok () -> Alcotest.fail "audit accepted a committed read of an aborted write"

let test_audit_flags_duplicate_version () =
  let t1 = txn (v 1 1) ~writes:[ "x" ] ~start_us:0 ~commit_us:10 in
  let t2 = txn (v 1 1) ~writes:[ "y" ] ~start_us:5 ~commit_us:15 in
  match Explore.Audit.check [ t1; t2 ] (dummy_result ()) with
  | Error (Explore.Audit.Duplicate_version _) -> ()
  | Error viol -> Alcotest.failf "wrong violation: %a" Explore.Audit.pp_violation viol
  | Ok () -> Alcotest.fail "audit accepted duplicate versions"

let test_audit_flags_time_anomaly () =
  let t1 = txn (v 1 1) ~writes:[ "x" ] ~start_us:100 ~commit_us:50 in
  match Explore.Audit.check [ t1 ] (dummy_result ()) with
  | Error (Explore.Audit.Time_anomaly _) -> ()
  | Error viol -> Alcotest.failf "wrong violation: %a" Explore.Audit.pp_violation viol
  | Ok () -> Alcotest.fail "audit accepted commit before start"

let test_audit_flags_no_progress () =
  match
    Explore.Audit.check ~expect_progress:true [] (dummy_result ~committed:0 ())
  with
  | Error Explore.Audit.No_progress -> ()
  | Error viol -> Alcotest.failf "wrong violation: %a" Explore.Audit.pp_violation viol
  | Ok () -> Alcotest.fail "audit accepted an idle fault-free run"

let test_audit_accepts_clean_run () =
  let t1 =
    txn (v 1 1) ~reads:[ ("x", Version.zero) ] ~writes:[ "x" ] ~start_us:0
      ~commit_us:10
  in
  match Explore.Audit.check ~expect_progress:true [ t1 ] (dummy_result ()) with
  | Ok () -> ()
  | Error viol -> Alcotest.failf "clean run rejected: %a" Explore.Audit.pp_violation viol

let suites =
  [
    ( "adya.oracle",
      [
        Alcotest.test_case "G1a aborted read rejected" `Quick test_aborted_read_rejected;
        Alcotest.test_case "lost update rejected" `Quick test_lost_update_rejected;
        Alcotest.test_case "write skew rejected" `Quick test_write_skew_rejected;
        Alcotest.test_case "serial chain accepted" `Quick test_serial_chain_accepted;
        Alcotest.test_case "aborted reader ignored" `Quick test_aborted_reader_ignored;
        Alcotest.test_case "golden violation text" `Quick test_golden_violations;
      ] );
    ( "explore.audit",
      [
        Alcotest.test_case "flags G1a" `Quick test_audit_flags_anomaly;
        Alcotest.test_case "flags duplicate version" `Quick
          test_audit_flags_duplicate_version;
        Alcotest.test_case "flags time anomaly" `Quick test_audit_flags_time_anomaly;
        Alcotest.test_case "flags no progress" `Quick test_audit_flags_no_progress;
        Alcotest.test_case "accepts clean run" `Quick test_audit_accepts_clean_run;
      ] );
  ]
