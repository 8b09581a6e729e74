(* Integration tests for Morty: commits, re-execution, MVTSO mode,
   serializability (checked with the Adya oracle), failure recovery,
   and truncation GC. *)

module Version = Cc_types.Version
module Outcome = Cc_types.Outcome

type cluster = {
  engine : Sim.Engine.t;
  net : Morty.Msg.t Simnet.Net.t;
  rng : Sim.Rng.t;
  replicas : Morty.Replica.t array;
  cfg : Morty.Config.t;
  history : Morty.Client.record list ref;
}

let make_cluster ?(cfg = Morty.Config.default) ?(cores = 4) ?(seed = 7) () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create seed in
  let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:Simnet.Latency.Reg () in
  let n = Morty.Config.n_replicas cfg in
  let replicas =
    Array.init n (fun i ->
        Morty.Replica.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng) ~index:i
          ~region:(Simnet.Latency.Az i) ~cores ())
  in
  let peers = Array.map Morty.Replica.node replicas in
  Array.iter (fun r -> Morty.Replica.set_peers r peers) replicas;
  { engine; net; rng; replicas; cfg; history = ref [] }

let make_client ?(az = 0) cluster =
  Morty.Client.create ~cfg:cluster.cfg ~engine:cluster.engine ~net:cluster.net
    ~rng:(Sim.Rng.split cluster.rng) ~region:(Simnet.Latency.Az az)
    ~replicas:(Array.map Morty.Replica.node cluster.replicas)
    ~on_finish:(fun r -> cluster.history := r :: !(cluster.history))
    ()

let load cluster pairs = Array.iter (fun r -> Morty.Replica.load r pairs) cluster.replicas

(* Run an increment transaction: read [key], write value+1. *)
let increment client key (done_ : Outcome.t -> unit) =
  Morty.Client.begin_ client (fun ctx ->
      Morty.Client.get client ctx key (fun ctx v ->
          let n = if String.equal v "" then 0 else int_of_string v in
          let ctx = Morty.Client.put client ctx key (string_of_int (n + 1)) in
          Morty.Client.commit client ctx done_))

(* Closed-loop increments with randomized exponential backoff on abort. *)
let increment_loop cluster client key ~count =
  let committed = ref 0 in
  let backoff_base = 5_000 in
  let rec go remaining attempt =
    if remaining > 0 then
      increment client key (function
        | Outcome.Committed ->
          incr committed;
          go (remaining - 1) 0
        | Outcome.Aborted _ ->
          let cap = backoff_base * (1 lsl min attempt 8) in
          let wait = 1 + Sim.Rng.int cluster.rng cap in
          ignore
            (Sim.Engine.schedule cluster.engine ~after:wait (fun () ->
                 go remaining (attempt + 1))))
  in
  go count 0;
  committed

let history_of cluster =
  List.fold_left
    (fun h (r : Morty.Client.record) ->
      Adya.History.add h
        {
          Adya.History.ver = r.h_ver;
          reads = r.h_reads;
          writes = r.h_writes;
          committed = r.h_committed;
          start_us = r.h_start_us;
          commit_us = r.h_end_us;
        })
    Adya.History.empty !(cluster.history)

let assert_serializable cluster =
  match Adya.Dsg.check (history_of cluster) with
  | Ok () -> ()
  | Error v -> Alcotest.failf "history not serializable: %a" Adya.Dsg.pp_violation v

let replica_value cluster key =
  Morty.Replica.read_current cluster.replicas.(0) key

(* ---- tests ---- *)

let test_single_txn_commits () =
  let c = make_cluster () in
  load c [ ("x", "10") ];
  let client = make_client c in
  let outcome = ref None in
  Morty.Client.begin_ client (fun ctx ->
      Morty.Client.get client ctx "x" (fun ctx v ->
          Alcotest.(check string) "initial read" "10" v;
          let ctx = Morty.Client.put client ctx "x" "11" in
          Morty.Client.commit client ctx (fun o -> outcome := Some o)));
  Sim.Engine.run c.engine;
  Alcotest.(check bool) "committed" true (!outcome = Some Outcome.Committed);
  Alcotest.(check (option string)) "value installed" (Some "11") (replica_value c "x");
  let st = Morty.Client.stats client in
  Alcotest.(check int) "fast path" 1 st.fast_commits;
  assert_serializable c

let test_read_missing_key () =
  let c = make_cluster () in
  let client = make_client c in
  let got = ref None in
  Morty.Client.begin_ client (fun ctx ->
      Morty.Client.get client ctx "nope" (fun ctx v ->
          got := Some v;
          Morty.Client.commit client ctx (fun _ -> ())));
  Sim.Engine.run c.engine;
  Alcotest.(check (option string)) "empty" (Some "") !got

let test_read_your_own_write () =
  let c = make_cluster () in
  load c [ ("x", "1") ];
  let client = make_client c in
  let second_read = ref None in
  Morty.Client.begin_ client (fun ctx ->
      let ctx = Morty.Client.put client ctx "x" "42" in
      Morty.Client.get client ctx "x" (fun ctx v ->
          second_read := Some v;
          Morty.Client.commit client ctx (fun _ -> ())));
  Sim.Engine.run c.engine;
  Alcotest.(check (option string)) "own write visible" (Some "42") !second_read

let test_repeatable_read () =
  let c = make_cluster () in
  load c [ ("x", "7") ];
  let client = make_client c in
  let reads = ref [] in
  Morty.Client.begin_ client (fun ctx ->
      Morty.Client.get client ctx "x" (fun ctx v1 ->
          reads := v1 :: !reads;
          Morty.Client.get client ctx "x" (fun ctx v2 ->
              reads := v2 :: !reads;
              Morty.Client.commit client ctx (fun _ -> ()))));
  Sim.Engine.run c.engine;
  Alcotest.(check (list string)) "same value" [ "7"; "7" ] !reads

let test_two_conflicting_txns_both_commit () =
  (* The Figure 3 scenario: concurrent RMWs on the same key re-execute
     instead of aborting, and serialization windows align. *)
  let c = make_cluster () in
  load c [ ("x", "0") ];
  let c1 = make_client ~az:0 c in
  let c2 = make_client ~az:1 c in
  let o1 = ref None and o2 = ref None in
  increment c1 "x" (fun o -> o1 := Some o);
  increment c2 "x" (fun o -> o2 := Some o);
  Sim.Engine.run c.engine;
  Alcotest.(check bool) "t1 committed" true (!o1 = Some Outcome.Committed);
  Alcotest.(check bool) "t2 committed" true (!o2 = Some Outcome.Committed);
  Alcotest.(check (option string)) "both increments applied" (Some "2")
    (replica_value c "x");
  assert_serializable c

let test_contended_counter_morty () =
  (* 6 clients hammer one counter in closed loops; every committed
     increment must be reflected and the history must be serializable. *)
  let c = make_cluster () in
  load c [ ("ctr", "0") ];
  let counters =
    List.init 6 (fun i ->
        let client = make_client ~az:(i mod 3) c in
        increment_loop c client "ctr" ~count:15)
  in
  Sim.Engine.run c.engine;
  let total = List.fold_left (fun acc r -> acc + !r) 0 counters in
  Alcotest.(check int) "all loops finished" 90 total;
  Alcotest.(check (option string)) "counter equals commits" (Some "90")
    (replica_value c "ctr");
  assert_serializable c

let test_reexecution_occurs_under_contention () =
  let c = make_cluster () in
  load c [ ("ctr", "0") ];
  let clients = List.init 4 (fun i -> make_client ~az:(i mod 3) c) in
  List.iter (fun client -> ignore (increment_loop c client "ctr" ~count:10)) clients;
  Sim.Engine.run c.engine;
  let reexecs =
    List.fold_left (fun acc cl -> acc + (Morty.Client.stats cl).reexecs) 0 clients
  in
  Alcotest.(check bool) "some re-executions happened" true (reexecs > 0);
  assert_serializable c

let test_mvtso_mode_aborts_instead () =
  (* With re-execution off, contention must produce aborts (and the
     backoff loop still eventually completes every increment). *)
  let cfg = Morty.Config.mvtso Morty.Config.default in
  let c = make_cluster ~cfg () in
  load c [ ("ctr", "0") ];
  let clients = List.init 4 (fun i -> make_client ~az:(i mod 3) c) in
  List.iter (fun client -> ignore (increment_loop c client "ctr" ~count:10)) clients;
  Sim.Engine.run c.engine;
  Alcotest.(check (option string)) "counter equals commits" (Some "40")
    (replica_value c "ctr");
  let aborted =
    List.fold_left (fun acc cl -> acc + (Morty.Client.stats cl).aborted) 0 clients
  in
  let reexecs =
    List.fold_left (fun acc cl -> acc + (Morty.Client.stats cl).reexecs) 0 clients
  in
  Alcotest.(check int) "no re-executions in MVTSO mode" 0 reexecs;
  Alcotest.(check bool) "aborts happened" true (aborted > 0);
  assert_serializable c

let test_disjoint_keys_no_interference () =
  let c = make_cluster () in
  load c (List.init 8 (fun i -> (Printf.sprintf "k%d" i, "0")));
  let clients = List.init 8 (fun i -> (i, make_client ~az:(i mod 3) c)) in
  List.iter
    (fun (i, client) ->
      ignore (increment_loop c client (Printf.sprintf "k%d" i) ~count:10))
    clients;
  Sim.Engine.run c.engine;
  List.iter
    (fun (i, client) ->
      let st = Morty.Client.stats client in
      Alcotest.(check int) "no aborts" 0 st.aborted;
      Alcotest.(check int) "no reexecs" 0 st.reexecs;
      Alcotest.(check (option string)) "value" (Some "10")
        (replica_value c (Printf.sprintf "k%d" i)))
    clients;
  assert_serializable c

let test_crashed_coordinator_recovery_commit () =
  (* Crash the coordinator after Prepare is sent; replicas all vote
     Commit; a dependent transaction forces recovery, which must commit
     the orphan and unblock the dependent. *)
  let cfg = { Morty.Config.default with dep_recovery_timeout_us = 200_000 } in
  let c = make_cluster ~cfg () in
  load c [ ("x", "0") ];
  let c1 = make_client ~az:0 c in
  let c2 = make_client ~az:1 c in
  (* T1 increments x and we crash its client node just after commit is
     initiated (before any reply can reach it). *)
  increment c1 "x" (fun _ -> Alcotest.fail "crashed client must not hear back");
  (* T1's read is served by its co-located replica in ~150us, so the
     Prepare broadcast is in flight well before 6ms; the farthest
     replicas' votes only land at ~10ms.  Crash in between. *)
  ignore
    (Sim.Engine.schedule c.engine ~after:6_000 (fun () ->
         Simnet.Net.crash c.net (Morty.Client.node c1)));
  let o2 = ref None in
  ignore
    (Sim.Engine.schedule c.engine ~after:30_000 (fun () ->
         increment c2 "x" (fun o -> o2 := Some o)));
  Sim.Engine.run_until c.engine ~limit:10_000_000;
  Alcotest.(check bool) "t2 committed after recovery" true
    (!o2 = Some Outcome.Committed);
  (* T1 was recovered to Commit (all replicas voted commit), so the
     counter reflects both increments. *)
  Alcotest.(check (option string)) "both effects" (Some "2") (replica_value c "x");
  let recoveries =
    Array.fold_left (fun acc r -> acc + (Morty.Replica.stats r).recoveries) 0 c.replicas
  in
  Alcotest.(check bool) "recovery ran" true (recoveries > 0)

let test_crashed_coordinator_recovery_abort () =
  (* Crash the coordinator before Prepare: its uncommitted write blocks a
     reader, recovery finds no votes and aborts the orphan; the reader
     re-executes backward and commits against the original value. *)
  let cfg = { Morty.Config.default with dep_recovery_timeout_us = 200_000 } in
  let c = make_cluster ~cfg () in
  load c [ ("x", "5") ];
  let c1 = make_client ~az:0 c in
  let c2 = make_client ~az:1 c in
  (* T1: write without committing (crash before commit). *)
  Morty.Client.begin_ c1 (fun ctx ->
      Morty.Client.get c1 ctx "x" (fun ctx _ ->
          let _ctx = Morty.Client.put c1 ctx "x" "99" in
          (* Never commits: crash. *)
          Simnet.Net.crash c.net (Morty.Client.node c1)));
  let o2 = ref None and seen = ref None in
  ignore
    (Sim.Engine.schedule c.engine ~after:50_000 (fun () ->
         Morty.Client.begin_ c2 (fun ctx ->
             Morty.Client.get c2 ctx "x" (fun ctx v ->
                 (* Re-execution re-runs this continuation; keep the
                    first observation. *)
                 if !seen = None then seen := Some v;
                 let ctx = Morty.Client.put c2 ctx "x" "7" in
                 Morty.Client.commit c2 ctx (fun o -> o2 := Some o)))));
  Sim.Engine.run_until c.engine ~limit:20_000_000;
  Alcotest.(check bool) "t2 committed" true (!o2 = Some Outcome.Committed);
  Alcotest.(check (option string)) "t2's write wins" (Some "7") (replica_value c "x");
  (* The orphan's write must be recorded aborted. *)
  Alcotest.(check bool) "reader initially saw uncommitted write" true
    (!seen = Some "99")

let test_crashed_replica_tolerated () =
  (* With f = 1, one crashed replica must not block commits (slow path). *)
  let c = make_cluster () in
  load c [ ("x", "0") ];
  Simnet.Net.crash c.net (Morty.Replica.node c.replicas.(2));
  let client = make_client c in
  let o = ref None in
  increment client "x" (fun out -> o := Some out);
  Sim.Engine.run_until c.engine ~limit:5_000_000;
  Alcotest.(check bool) "committed despite crash" true (!o = Some Outcome.Committed);
  let st = Morty.Client.stats client in
  Alcotest.(check int) "slow path" 1 st.slow_commits

let test_truncation_gc () =
  let cfg = { Morty.Config.default with truncation_interval_us = 200_000 } in
  let c = make_cluster ~cfg () in
  load c [ ("a", "0"); ("b", "0") ];
  let client = make_client c in
  ignore (increment_loop c client "a" ~count:30);
  Sim.Engine.run_until c.engine ~limit:5_000_000;
  (* Watermark advanced and old erecord entries collected. *)
  Array.iter
    (fun r ->
      (match Morty.Replica.watermark r with
       | Some _ -> ()
       | None -> Alcotest.fail "watermark never advanced");
      Alcotest.(check bool) "erecord bounded" true (Morty.Replica.erecord_size r < 30))
    c.replicas;
  Alcotest.(check (option string)) "counter survives GC" (Some "30")
    (replica_value c "a")

let test_client_abort () =
  let c = make_cluster () in
  load c [ ("x", "3") ];
  let client = make_client c in
  let done_ = ref false in
  Morty.Client.begin_ client (fun ctx ->
      Morty.Client.get client ctx "x" (fun ctx _ ->
          let ctx = Morty.Client.put client ctx "x" "4" in
          Morty.Client.abort client ctx;
          done_ := true));
  Sim.Engine.run c.engine;
  Alcotest.(check bool) "abort ran" true !done_;
  Alcotest.(check (option string)) "write not installed" (Some "3")
    (replica_value c "x")

(* ---- Decide cleanup ---- *)

(* One replica driven message by message from a bare client node, so a
   test can stop between any two protocol steps.  Runs stay far below
   [dep_recovery_timeout_us], so no recovery starts on its own. *)
type bare = {
  b_engine : Sim.Engine.t;
  b_net : Morty.Msg.t Simnet.Net.t;
  b_replica : Morty.Replica.t;
  b_client : Simnet.Net.node;
}

let make_bare () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 5 in
  let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:Simnet.Latency.Reg () in
  let replica =
    Morty.Replica.create ~cfg:Morty.Config.default ~engine ~net ~rng:(Sim.Rng.split rng)
      ~index:0 ~region:(Simnet.Latency.Az 0) ~cores:1 ()
  in
  Morty.Replica.set_peers replica [| Morty.Replica.node replica |];
  Morty.Replica.load replica [ ("a", "0"); ("b", "0"); ("c", "0") ];
  let client = Simnet.Net.add_node net ~region:(Simnet.Latency.Az 0) in
  Simnet.Net.set_handler net client (fun ~src:_ _ -> ());
  { b_engine = engine; b_net = net; b_replica = replica; b_client = client }

(* Deliver [msgs] in order and let the replica serve them. *)
let deliver b msgs =
  List.iter
    (fun m ->
      Simnet.Net.send b.b_net ~src:b.b_client ~dst:(Morty.Replica.node b.b_replica) m;
      Sim.Engine.run_until b.b_engine ~limit:(Sim.Engine.now b.b_engine + 20_000))
    msgs

(* (uncommitted reads, prepared entries) held in [key]'s vrecord. *)
let held b key =
  match Morty.Replica.vrecord b.b_replica key with
  | None -> (0, 0)
  | Some vr ->
    let reads, _, prepared, _ = Mvstore.Vrecord.stats vr in
    (reads, prepared)

let check_held b key what expect =
  Alcotest.(check (pair int int)) (key ^ ": (reads, prepared) " ^ what) expect
    (held b key)

let suspended b =
  List.assoc "suspended" (Morty.Replica.state_view b.b_replica).Obs.Monitor.v_counters

let v1 = Version.make ~ts:100 ~id:1
let v2 = Version.make ~ts:200 ~id:2
let rd key r_ver r_val = { Cc_types.Rwset.key; r_ver; r_val }
let wr key w_val = { Cc_types.Rwset.key; w_val }

(* Transaction [v1] reads a and c and writes b, then re-executes
   reading only a: a second Get and Put of the same keys, so its pending
   record holds those vrecords twice.  The Get of c never reached this
   replica, so only the prepare knows c.  With [abandon_lost] the first
   execution's Abandon never arrives either, and its prepared state lives
   until the transaction's decide. *)
let reexecuted b ~abandon_lost =
  let rs0 = [ rd "a" Version.zero "0"; rd "c" Version.zero "0" ] in
  deliver b
    [ Morty.Msg.Get { ver = v1; key = "a"; seq = 0; eid = 0 };
      Put { ver = v1; key = "b"; value = "1"; eid = 0 };
      Prepare { ver = v1; eid = 0; read_set = rs0; write_set = [ wr "b" "1" ] } ];
  check_held b "a" "after prepare" (1, 1);
  check_held b "b" "after prepare" (0, 1);
  check_held b "c" "after prepare" (0, 1);
  if not abandon_lost then begin
    deliver b
      [ Morty.Msg.Decide
          { ver = v1; eid = 0; decision = Morty.Decision.Abandon; abort = false;
            read_set = rs0; write_set = [ wr "b" "1" ] } ];
    check_held b "a" "after abandon: read kept, prepare dropped" (1, 0);
    check_held b "b" "after abandon" (0, 0);
    check_held b "c" "after abandon" (0, 0)
  end;
  let rs = [ rd "a" Version.zero "0" ] in
  deliver b
    [ Morty.Msg.Get { ver = v1; key = "a"; seq = 1; eid = 1 };
      Put { ver = v1; key = "b"; value = "2"; eid = 1 };
      Prepare { ver = v1; eid = 1; read_set = rs; write_set = [ wr "b" "2" ] } ];
  check_held b "a" "after re-prepare" (1, 1);
  check_held b "b" "after re-prepare" (0, 1);
  rs

let test_decide_releases_reexecuted ~commit ~abandon_lost () =
  let b = make_bare () in
  let rs = reexecuted b ~abandon_lost in
  deliver b
    [ Morty.Msg.Decide
        { ver = v1; eid = 1; abort = not commit; read_set = rs; write_set = [ wr "b" "2" ];
          decision = (if commit then Morty.Decision.Commit else Morty.Decision.Abandon) } ];
  List.iter (fun key -> check_held b key "after the decide" (0, 0)) [ "a"; "b"; "c" ];
  Alcotest.(check (option string)) "b installed iff committed"
    (if commit then Some "2" else None)
    (Morty.Replica.committed_value_at b.b_replica "b" v1);
  Alcotest.(check (option string)) "b reads the decided value"
    (Some (if commit then "2" else "0"))
    (Morty.Replica.read_current b.b_replica "b")

(* [v2] reads [v1]'s uncommitted write, so its prepare waits for [v1]'s
   decide; [v1]'s decide wakes it, and [v2]'s own decide releases it. *)
let suspended_on_dep ~dep_commits =
  let b = make_bare () in
  let ws1 = [ wr "a" "1" ] and rs2 = [ rd "a" v1 "1" ] and ws2 = [ wr "b" "x" ] in
  deliver b
    [ Morty.Msg.Put { ver = v1; key = "a"; value = "1"; eid = 0 };
      Get { ver = v2; key = "a"; seq = 0; eid = 0 };
      Prepare { ver = v2; eid = 0; read_set = rs2; write_set = ws2 } ];
  Alcotest.(check int) "one transaction has a suspended prepare" 1 (suspended b);
  check_held b "a" "while suspended" (1, 0);
  deliver b
    [ Morty.Msg.Decide
        { ver = v1; eid = 0; abort = not dep_commits; read_set = []; write_set = ws1;
          decision =
            (if dep_commits then Morty.Decision.Commit else Morty.Decision.Abandon) } ];
  Alcotest.(check int) "woken" 0 (suspended b);
  check_held b "a" "after the dependency's decide"
    (if dep_commits then (1, 1) else (1, 0));
  check_held b "b" "after the dependency's decide"
    (if dep_commits then (0, 1) else (0, 0));
  deliver b
    [ Morty.Msg.Decide
        { ver = v2; eid = 0; abort = not dep_commits; read_set = rs2; write_set = ws2;
          decision =
            (if dep_commits then Morty.Decision.Commit else Morty.Decision.Abandon) } ];
  check_held b "a" "after both decides" (0, 0);
  check_held b "b" "after both decides" (0, 0);
  Alcotest.(check int) "nothing suspended" 0 (suspended b)

let test_suspended_prepare_dep_commits () = suspended_on_dep ~dep_commits:true
let test_suspended_prepare_dep_aborts () = suspended_on_dep ~dep_commits:false

let test_fast_path_statistics () =
  let c = make_cluster () in
  load c [ ("x", "0") ];
  let client = make_client c in
  ignore (increment_loop c client "x" ~count:20);
  Sim.Engine.run c.engine;
  let st = Morty.Client.stats client in
  Alcotest.(check int) "all committed" 20 st.committed;
  Alcotest.(check int) "all fast path" 20 st.fast_commits

let qcheck_random_contention_serializable =
  QCheck.Test.make ~name:"random contended runs are serializable" ~count:12
    QCheck.(pair small_int (int_range 2 5))
    (fun (seed, n_clients) ->
      let c = make_cluster ~seed () in
      let keys = [ "a"; "b"; "c" ] in
      load c (List.map (fun k -> (k, "0")) keys);
      let rng = Sim.Rng.create (seed + 1) in
      let clients = List.init n_clients (fun i -> make_client ~az:(i mod 3) c) in
      (* Each client runs a loop of two-key read-modify-write txns. *)
      List.iter
        (fun client ->
          let rec go remaining =
            if remaining > 0 then begin
              let k1 = List.nth keys (Sim.Rng.int rng 3) in
              let k2 = List.nth keys (Sim.Rng.int rng 3) in
              Morty.Client.begin_ client (fun ctx ->
                  Morty.Client.get client ctx k1 (fun ctx v1 ->
                      Morty.Client.get client ctx k2 (fun ctx _v2 ->
                          let n = if String.equal v1 "" then 0 else int_of_string v1 in
                          let ctx =
                            Morty.Client.put client ctx k2 (string_of_int (n + 1))
                          in
                          Morty.Client.commit client ctx (function
                            | Outcome.Committed -> go (remaining - 1)
                            | Outcome.Aborted _ ->
                              ignore
                                (Sim.Engine.schedule c.engine
                                   ~after:(1 + Sim.Rng.int rng 20_000)
                                   (fun () -> go remaining))))))
            end
          in
          go 8)
        clients;
      Sim.Engine.run c.engine;
      Adya.Dsg.is_serializable (history_of c))

(* A queued retry timer must not keep a finished transaction alive: the
   Get retry, the cancelled Prepare timer and the Finalize retry are all
   still queued when a fast-path commit fires its outcome.  [marker] is
   captured only by the body and the outcome continuation, so once the
   outcome has run it must be collectable. *)
let start_marked_txn client weak =
  let marker = ref 0 and outcome = ref None in
  Weak.set weak 0 (Some marker);
  Morty.Client.begin_ client (fun ctx ->
      Morty.Client.get client ctx "x" (fun ctx v ->
          let ctx = Morty.Client.put client ctx "x" (v ^ "1") in
          Morty.Client.commit client ctx (fun o ->
              incr marker;
              outcome := Some o)));
  outcome
[@@inline never]

let test_finished_txn_collectable cfg () =
  let c = make_cluster ~cfg () in
  load c [ ("x", "0") ];
  let client = make_client c in
  let weak = Weak.create 1 in
  let outcome = start_marked_txn client weak in
  while !outcome = None && Sim.Engine.step c.engine do
    ()
  done;
  Alcotest.(check bool) "committed" true (!outcome = Some Outcome.Committed);
  Gc.full_major ();
  Alcotest.(check bool) "finished transaction collected" false (Weak.check weak 0);
  (* Checked after the collection, which keeps the queue reachable. *)
  Alcotest.(check bool) "timers still queued" true (Sim.Engine.pending c.engine > 0)

let suites =
  [
    ( "morty.timers",
      [
        Alcotest.test_case "finished transaction is collectable while its timers are queued"
          `Quick (test_finished_txn_collectable Morty.Config.default);
        Alcotest.test_case
          "mvtso: finished transaction is collectable while its timers are queued" `Quick
          (test_finished_txn_collectable (Morty.Config.mvtso Morty.Config.default));
      ] );
    ( "morty.basic",
      [
        Alcotest.test_case "single txn commits" `Quick test_single_txn_commits;
        Alcotest.test_case "read missing key" `Quick test_read_missing_key;
        Alcotest.test_case "read your own write" `Quick test_read_your_own_write;
        Alcotest.test_case "repeatable read" `Quick test_repeatable_read;
        Alcotest.test_case "client abort" `Quick test_client_abort;
        Alcotest.test_case "fast path stats" `Quick test_fast_path_statistics;
      ] );
    ( "morty.reexecution",
      [
        Alcotest.test_case "conflicting txns both commit" `Quick
          test_two_conflicting_txns_both_commit;
        Alcotest.test_case "contended counter" `Quick test_contended_counter_morty;
        Alcotest.test_case "re-execution occurs" `Quick
          test_reexecution_occurs_under_contention;
        Alcotest.test_case "mvtso mode aborts" `Quick test_mvtso_mode_aborts_instead;
        Alcotest.test_case "disjoint keys" `Quick test_disjoint_keys_no_interference;
        QCheck_alcotest.to_alcotest qcheck_random_contention_serializable;
      ] );
    ( "morty.failures",
      [
        Alcotest.test_case "coordinator recovery commits orphan" `Quick
          test_crashed_coordinator_recovery_commit;
        Alcotest.test_case "coordinator recovery aborts orphan" `Quick
          test_crashed_coordinator_recovery_abort;
        Alcotest.test_case "crashed replica tolerated" `Quick
          test_crashed_replica_tolerated;
      ] );
    ( "morty.gc",
      [ Alcotest.test_case "truncation gc" `Quick test_truncation_gc ] );
    ( "morty.decide-cleanup",
      [
        Alcotest.test_case "commit releases a re-executed txn" `Quick
          (test_decide_releases_reexecuted ~commit:true ~abandon_lost:false);
        Alcotest.test_case "abort releases a re-executed txn" `Quick
          (test_decide_releases_reexecuted ~commit:false ~abandon_lost:false);
        Alcotest.test_case "commit after a lost abandon" `Quick
          (test_decide_releases_reexecuted ~commit:true ~abandon_lost:true);
        Alcotest.test_case "abort after a lost abandon" `Quick
          (test_decide_releases_reexecuted ~commit:false ~abandon_lost:true);
        Alcotest.test_case "suspended prepare, dependency commits" `Quick
          test_suspended_prepare_dep_commits;
        Alcotest.test_case "suspended prepare, dependency aborts" `Quick
          test_suspended_prepare_dep_aborts;
      ] );
  ]
