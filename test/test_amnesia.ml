(* Amnesia-crash fault model: kill a replica (total in-memory state
   loss), bring up a fresh incarnation on the same node, and catch it
   up from peers.  Covers the protocol-level Morty path (Recovering
   mode, f+1 donor quorum, vote service resuming after catch-up), the
   interaction with truncation, the harness-level counters and
   f-threshold guard, and the recovery-view stride fix. *)

module Version = Cc_types.Version
module Outcome = Cc_types.Outcome

type cluster = {
  engine : Sim.Engine.t;
  net : Morty.Msg.t Simnet.Net.t;
  rng : Sim.Rng.t;
  replicas : Morty.Replica.t array;
  cfg : Morty.Config.t;
}

let make_cluster ?(cfg = Morty.Config.default) ?(seed = 91) () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create seed in
  let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:Simnet.Latency.Reg () in
  let n = Morty.Config.n_replicas cfg in
  let replicas =
    Array.init n (fun i ->
        Morty.Replica.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng) ~index:i
          ~region:(Simnet.Latency.Az (i mod 3)) ~cores:2 ())
  in
  let peers = Array.map Morty.Replica.node replicas in
  Array.iter (fun r -> Morty.Replica.set_peers r peers) replicas;
  { engine; net; rng; replicas; cfg }

let make_client ?(az = 0) ?on_finish c =
  Morty.Client.create ~cfg:c.cfg ~engine:c.engine ~net:c.net
    ~rng:(Sim.Rng.split c.rng) ~region:(Simnet.Latency.Az az)
    ~replicas:(Array.map Morty.Replica.node c.replicas) ?on_finish ()

let load c pairs = Array.iter (fun r -> Morty.Replica.load r pairs) c.replicas

(* The harness's co_kill/co_restart, inlined so the protocol can be
   exercised against a hand-built cluster. *)
let kill c i =
  Morty.Replica.stop c.replicas.(i);
  Simnet.Net.crash c.net (Morty.Replica.node c.replicas.(i))

let restart c i =
  let old = c.replicas.(i) in
  let node = Morty.Replica.node old in
  let fresh =
    Morty.Replica.create_at ~node ~cfg:c.cfg ~engine:c.engine ~net:c.net
      ~rng:(Sim.Rng.split c.rng) ~index:i ~cores:2 ()
  in
  Morty.Replica.set_peers fresh (Array.map Morty.Replica.node c.replicas);
  c.replicas.(i) <- fresh;
  Simnet.Net.recover c.net node;
  Morty.Replica.start_catchup fresh;
  fresh

let increment c client key done_ =
  Morty.Client.begin_ client (fun ctx ->
      Morty.Client.get client ctx key (fun ctx v ->
          let n = if String.equal v "" then 0 else int_of_string v in
          let ctx = Morty.Client.put client ctx key (string_of_int (n + 1)) in
          Morty.Client.commit client ctx done_));
  ignore c

(* Closed-loop increments with retry-on-abort; returns the commit
   counter (read after the engine has run). *)
let increment_loop c client key ~count =
  let committed = ref 0 in
  let crng = Sim.Rng.split c.rng in
  let rec loop remaining attempt =
    if remaining > 0 then
      increment c client key (function
        | Outcome.Committed ->
          incr committed;
          loop (remaining - 1) 0
        | Outcome.Aborted _ ->
          ignore
            (Sim.Engine.schedule c.engine
               ~after:(1 + Sim.Rng.int crng (8_000 * (1 lsl min attempt 8)))
               (fun () -> loop remaining (attempt + 1))))
  in
  loop count 0;
  committed

(* Kill a replica, commit through its absence, restart it, and verify
   the fresh incarnation catches up from peers and serves Prepare votes
   again — the end-to-end acceptance path of the amnesia model. *)
let test_kill_restart_catchup () =
  let c = make_cluster () in
  load c [ ("x", "0") ];
  let client = make_client c in
  let n1 = increment_loop c client "x" ~count:5 in
  Sim.Engine.run_until c.engine ~limit:3_000_000;
  Alcotest.(check int) "first batch committed" 5 !n1;
  kill c 2;
  Alcotest.(check bool) "killed" true (Morty.Replica.is_stopped c.replicas.(2));
  let n2 = increment_loop c client "x" ~count:5 in
  Sim.Engine.run_until c.engine ~limit:8_000_000;
  Alcotest.(check int) "second batch committed past the kill" 5 !n2;
  let fresh = restart c 2 in
  Alcotest.(check bool) "recovering right after restart" true
    (Morty.Replica.is_recovering fresh);
  Sim.Engine.run_until c.engine ~limit:10_000_000;
  Alcotest.(check bool) "caught up" false (Morty.Replica.is_recovering fresh);
  let st = Morty.Replica.stats fresh in
  Alcotest.(check int) "one catch-up round" 1 st.Morty.Replica.catchups;
  Alcotest.(check bool) "catch-up latency recorded" true
    (st.Morty.Replica.catchup_wait_us > 0);
  Alcotest.(check (option string)) "state transferred, incl. writes it missed"
    (Some "10")
    (Morty.Replica.read_current fresh "x");
  (* Donors (the two survivors) each answered the state request. *)
  let donated =
    Array.fold_left
      (fun acc r -> acc + (Morty.Replica.stats r).Morty.Replica.state_transfer_msgs)
      0 c.replicas
  in
  Alcotest.(check bool) "f+1 donors replied" true (donated >= c.cfg.Morty.Config.f + 1);
  (* The restarted replica votes again: drive more commits and watch its
     (zeroed at restart) Prepare counters move. *)
  Alcotest.(check int) "no prepares served while amnesiac" 0
    st.Morty.Replica.prepares;
  let n3 = increment_loop c client "x" ~count:5 in
  Sim.Engine.run_until c.engine ~limit:15_000_000;
  Alcotest.(check int) "third batch committed" 5 !n3;
  Alcotest.(check bool) "restarted replica serves Prepare again" true
    (st.Morty.Replica.prepares > 0);
  Alcotest.(check bool) "and votes" true (st.Morty.Replica.commit_votes > 0);
  Array.iter
    (fun r ->
      Alcotest.(check (option string)) "replicas agree" (Some "15")
        (Morty.Replica.read_current r "x"))
    c.replicas

(* Kill a replica while truncation rounds are running, restart it, and
   check the fresh incarnation adopts the survivors' watermark and
   merged snapshot; the full history must still audit serializable. *)
let test_truncation_amnesia () =
  let cfg = { Morty.Config.default with truncation_interval_us = 100_000 } in
  let c = make_cluster ~cfg ~seed:97 () in
  load c [ ("a", "0") ];
  let history = ref [] in
  let on_finish (r : Morty.Client.record) =
    history :=
      {
        Adya.History.ver = r.h_ver;
        reads = r.h_reads;
        writes = r.h_writes;
        committed = r.h_committed;
        start_us = r.h_start_us;
        commit_us = r.h_end_us;
      }
      :: !history
  in
  let client = make_client ~on_finish c in
  ignore (Sim.Engine.schedule_at c.engine ~at:250_000 (fun () -> kill c 1));
  ignore (Sim.Engine.schedule_at c.engine ~at:600_000 (fun () -> ignore (restart c 1)));
  let n = increment_loop c client "a" ~count:40 in
  Sim.Engine.run_until c.engine ~limit:20_000_000;
  Alcotest.(check int) "all committed across the kill" 40 !n;
  let fresh = c.replicas.(1) in
  Alcotest.(check int) "caught up once" 1
    (Morty.Replica.stats fresh).Morty.Replica.catchups;
  (match Morty.Replica.watermark fresh with
   | None -> Alcotest.fail "restarted replica adopted no watermark"
   | Some _ -> ());
  Alcotest.(check bool) "watermark matches survivors'" true
    (Morty.Replica.watermark fresh = Morty.Replica.watermark c.replicas.(0));
  Array.iter
    (fun r ->
      Alcotest.(check (option string)) "merged snapshot agrees" (Some "40")
        (Morty.Replica.read_current r "a");
      Alcotest.(check bool) "erecord GC'd on every replica" true
        (Morty.Replica.erecord_size r < 40))
    c.replicas;
  match Explore.Audit.history_of (List.rev !history) with
  | Error v ->
    Alcotest.failf "history malformed: %s" (Explore.Audit.violation_to_string v)
  | Ok h -> (
    match Adya.Dsg.check h with
    | Ok () -> ()
    | Error v ->
      Alcotest.failf "not serializable under truncation x amnesia: %a"
        Adya.Dsg.pp_violation v)

(* The harness surface: co_kill/co_restart through run_exp, counter
   plumbing into the result, and the f-threshold guard refusing a
   second concurrent amnesiac. *)
let test_harness_counters_and_guard () =
  let e =
    {
      Harness.Run.default_exp with
      e_clients = 6;
      e_cores = 2;
      e_warmup_us = 30_000;
      e_measure_us = 150_000;
      e_workload =
        Harness.Run.Ycsb
          { Workload.Ycsb.n_keys = 200; theta = 0.9; ops_per_txn = 4; read_pct = 50 };
      e_seed = 11;
    }
  in
  let faults (ops : Harness.Run.cluster_ops) =
    ignore (Sim.Engine.schedule_at ops.co_engine ~at:60_000 (fun () -> ops.co_kill 1));
    (* Second kill while replica 1 is amnesiac: must be refused (f = 1). *)
    ignore (Sim.Engine.schedule_at ops.co_engine ~at:70_000 (fun () -> ops.co_kill 2));
    ignore
      (Sim.Engine.schedule_at ops.co_engine ~at:120_000 (fun () -> ops.co_restart 1));
    (* Restarting a live replica: no-op (idempotent for the shrinker). *)
    ignore
      (Sim.Engine.schedule_at ops.co_engine ~at:130_000 (fun () -> ops.co_restart 2))
  in
  let r, h = Harness.Run.run_exp_audited ~faults e in
  (match Explore.Audit.check h r with
   | Ok () -> ()
   | Error v ->
     Alcotest.failf "audit violation: %s" (Explore.Audit.violation_to_string v));
  let rc = r.Harness.Stats.r_recovery in
  Alcotest.(check int) "one kill (guard refused the second)" 1
    rc.Harness.Stats.rc_kills;
  Alcotest.(check int) "one restart" 1 rc.Harness.Stats.rc_restarts;
  Alcotest.(check int) "one catch-up completed" 1 rc.Harness.Stats.rc_catchups;
  Alcotest.(check bool) "state transfer from a donor quorum" true
    (rc.Harness.Stats.rc_transfer_msgs >= 2);
  Alcotest.(check bool) "transfer payload accounted" true
    (rc.Harness.Stats.rc_transfer_bytes > 0);
  Alcotest.(check bool) "catch-up latency accounted" true
    (rc.Harness.Stats.rc_catchup_wait_us > 0);
  Alcotest.(check bool) "made progress" true (r.Harness.Stats.r_committed > 0)

(* run_failover takes an explicit victim, routes it through the
   cluster_ops surface, and runs the system the experiment names: a
   TAPIR or Spanner timeline must not silently measure Morty. *)
let test_failover_victim () =
  let timeline sys =
    Harness.Run.run_failover ~victim:0
      {
        Harness.Run.default_exp with
        e_system = sys;
        e_clients = 4;
        e_cores = 2;
        e_warmup_us = 30_000;
        e_measure_us = 120_000;
        e_workload =
          Harness.Run.Ycsb
            { Workload.Ycsb.n_keys = 100; theta = 0.9; ops_per_txn = 2; read_pct = 50 };
        e_seed = 5;
      }
      ~crash_at_us:50_000 ~recover_at_us:100_000 ~bucket_us:30_000
  in
  let morty = timeline Harness.Run.Morty in
  List.iter
    (fun sys ->
      let name = Harness.Run.system_name sys in
      let buckets = timeline sys in
      Alcotest.(check int) (name ^ ": one bucket per 30 ms") 6 (List.length buckets);
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
      Alcotest.(check bool) (name ^ ": commits despite victim-0 outage") true (total > 0);
      if sys <> Harness.Run.Morty then
        Alcotest.(check bool) (name ^ ": timeline is its own, not Morty's") true
          (buckets <> morty))
    Harness.Run.all_systems

(* The recovery-view arithmetic (satellite of the amnesia issue): the
   stride must be derived from the replica count, so concurrent
   recovery coordinators propose distinct, strictly larger views for
   any cluster size — including ones the old hard-coded stride of 1000
   broke (n_replicas > 999). *)
let test_recovery_view_stride () =
  List.iter
    (fun n ->
      List.iter
        (fun cur_view ->
          let views =
            List.init n (fun index ->
                Morty.Replica.recovery_view ~n_replicas:n ~cur_view ~index)
          in
          List.iter
            (fun v ->
              Alcotest.(check bool) "view strictly advances" true (v > cur_view))
            views;
          Alcotest.(check int) "views distinct across replicas" n
            (List.length (List.sort_uniq compare views)))
        [ 0; 1; 999; 123_456 ])
    [ 3; 5; 1500 ];
  (* Repeated recovery by the same replica keeps climbing. *)
  let v1 = Morty.Replica.recovery_view ~n_replicas:3 ~cur_view:0 ~index:2 in
  let v2 = Morty.Replica.recovery_view ~n_replicas:3 ~cur_view:v1 ~index:2 in
  Alcotest.(check bool) "re-recovery climbs" true (v2 > v1)

let suites =
  [
    ( "amnesia",
      [
        Alcotest.test_case "kill/restart/catch-up, votes resume" `Slow
          test_kill_restart_catchup;
        Alcotest.test_case "truncation x amnesia" `Slow test_truncation_amnesia;
        Alcotest.test_case "harness counters and f-guard" `Slow
          test_harness_counters_and_guard;
        Alcotest.test_case "failover victim routed via ops" `Slow
          test_failover_victim;
        Alcotest.test_case "recovery view stride" `Quick test_recovery_view_stride;
      ] );
  ]
