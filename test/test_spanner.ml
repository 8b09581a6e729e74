(* Tests for the Spanner baseline: the wound-wait lock table, 2PL
   commits, GetForUpdate, wound-induced aborts, commit-wait latency,
   read-only snapshot transactions, and serializability. *)

module Version = Cc_types.Version
module Outcome = Cc_types.Outcome
module Lt = Spanner.Lock_table

let v ts = Version.make ~ts ~id:0

let no_immune _ = false

(* ---- Lock table unit tests ---- *)

let test_lock_read_shared () =
  let t = Lt.create () in
  let s1, w1 = Lt.acquire t ~txn:(v 1) ~key:"k" ~mode:Lt.Read ~is_immune:no_immune in
  let s2, w2 = Lt.acquire t ~txn:(v 2) ~key:"k" ~mode:Lt.Read ~is_immune:no_immune in
  Alcotest.(check bool) "r1 granted" true (s1 = `Granted && w1 = []);
  Alcotest.(check bool) "r2 granted" true (s2 = `Granted && w2 = [])

let test_lock_write_exclusive () =
  let t = Lt.create () in
  let s1, _ = Lt.acquire t ~txn:(v 1) ~key:"k" ~mode:Lt.Write ~is_immune:no_immune in
  (* Younger writer waits. *)
  let s2, w2 = Lt.acquire t ~txn:(v 2) ~key:"k" ~mode:Lt.Write ~is_immune:no_immune in
  Alcotest.(check bool) "w1 granted" true (s1 = `Granted);
  Alcotest.(check bool) "w2 queued, no wounds" true (s2 = `Queued && w2 = []);
  Alcotest.(check int) "one waiting" 1 (Lt.waiting t)

let test_wound_younger_holder () =
  let t = Lt.create () in
  let _ = Lt.acquire t ~txn:(v 5) ~key:"k" ~mode:Lt.Write ~is_immune:no_immune in
  (* Older transaction wounds the younger holder. *)
  let s, wounded = Lt.acquire t ~txn:(v 1) ~key:"k" ~mode:Lt.Write ~is_immune:no_immune in
  Alcotest.(check bool) "granted after wound" true (s = `Granted);
  Alcotest.(check int) "one victim" 1 (List.length wounded);
  Alcotest.(check bool) "victim is the younger" true (Version.equal (List.hd wounded) (v 5))

let test_immune_holder_not_wounded () =
  let t = Lt.create () in
  let _ = Lt.acquire t ~txn:(v 5) ~key:"k" ~mode:Lt.Write ~is_immune:no_immune in
  let immune x = Version.equal x (v 5) in
  let s, wounded = Lt.acquire t ~txn:(v 1) ~key:"k" ~mode:Lt.Write ~is_immune:immune in
  Alcotest.(check bool) "older waits on immune younger" true (s = `Queued && wounded = [])

let test_release_promotes_fifo_by_age () =
  let t = Lt.create () in
  let _ = Lt.acquire t ~txn:(v 1) ~key:"k" ~mode:Lt.Write ~is_immune:no_immune in
  let _ = Lt.acquire t ~txn:(v 3) ~key:"k" ~mode:Lt.Write ~is_immune:no_immune in
  let _ = Lt.acquire t ~txn:(v 2) ~key:"k" ~mode:Lt.Write ~is_immune:no_immune in
  let grants, wounded = Lt.release_all t ~txn:(v 1) ~is_immune:no_immune in
  Alcotest.(check int) "no wounds" 0 (List.length wounded);
  (* Oldest waiter (v 2) is promoted first and blocks v 3. *)
  Alcotest.(check int) "one grant" 1 (List.length grants);
  Alcotest.(check bool) "v2 granted" true
    (Version.equal (List.hd grants).Lt.g_txn (v 2));
  Alcotest.(check bool) "v2 holds write" true (Lt.holds t ~txn:(v 2) ~key:"k" Lt.Write)

let test_promote_wounds_younger_blocker () =
  (* v3 holds; v2 queues (older than nothing to wound: v3 immune);
     releasing the immunity scenario: v3 holds read, v2 queued write,
     when v1 (holder) releases, v2's promotion wounds v3. *)
  let t = Lt.create () in
  let _ = Lt.acquire t ~txn:(v 1) ~key:"k" ~mode:Lt.Write ~is_immune:no_immune in
  (* v3 queues for read, v2 queues for write. *)
  let _ = Lt.acquire t ~txn:(v 3) ~key:"k" ~mode:Lt.Read ~is_immune:no_immune in
  let _ = Lt.acquire t ~txn:(v 2) ~key:"k" ~mode:Lt.Write ~is_immune:no_immune in
  let grants, _wounded = Lt.release_all t ~txn:(v 1) ~is_immune:no_immune in
  (* v2 is older: it is promoted first; v3 stays queued behind it. *)
  Alcotest.(check bool) "v2 write granted" true
    (List.exists (fun (g : Lt.grant) -> Version.equal g.g_txn (v 2) && g.g_mode = Lt.Write) grants)

let test_upgrade_read_to_write () =
  let t = Lt.create () in
  let _ = Lt.acquire t ~txn:(v 1) ~key:"k" ~mode:Lt.Read ~is_immune:no_immune in
  let s, _ = Lt.acquire t ~txn:(v 1) ~key:"k" ~mode:Lt.Write ~is_immune:no_immune in
  Alcotest.(check bool) "upgrade granted" true (s = `Granted);
  Alcotest.(check bool) "holds write" true (Lt.holds t ~txn:(v 1) ~key:"k" Lt.Write)

let test_reacquire_idempotent () =
  let t = Lt.create () in
  let _ = Lt.acquire t ~txn:(v 1) ~key:"k" ~mode:Lt.Write ~is_immune:no_immune in
  let s, _ = Lt.acquire t ~txn:(v 1) ~key:"k" ~mode:Lt.Write ~is_immune:no_immune in
  Alcotest.(check bool) "idempotent" true (s = `Granted)

(* ---- Cluster integration tests ---- *)

type cluster = {
  engine : Sim.Engine.t;
  net : Spanner.Msg.t Simnet.Net.t;
  rng : Sim.Rng.t;
  groups : Spanner.Replica.t array array;
  cfg : Spanner.Config.t;
  partition : string -> int;
  history : Spanner.Client.record list ref;
}

let make_cluster ?(cfg = Spanner.Config.default) ?(cores = 1) ?(seed = 13) () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create seed in
  let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:Simnet.Latency.Reg () in
  let groups =
    Array.init cfg.n_groups (fun g ->
        Array.init (Spanner.Config.n_replicas cfg) (fun i ->
            Spanner.Replica.create ~cfg ~engine ~net ~group:g ~index:i
              ~region:(Simnet.Latency.Az ((g + i) mod 3)) ~cores ()))
  in
  Array.iter
    (fun group ->
      let peers = Array.map Spanner.Replica.node group in
      Array.iter (fun r -> Spanner.Replica.set_peers r peers) group)
    groups;
  let partition key = Hashtbl.hash key mod cfg.n_groups in
  { engine; net; rng; groups; cfg; partition; history = ref [] }

let make_client ?(az = 0) c =
  Spanner.Client.create ~cfg:c.cfg ~engine:c.engine ~net:c.net
    ~rng:(Sim.Rng.split c.rng) ~region:(Simnet.Latency.Az az)
    ~leaders:(Array.map (fun g -> Spanner.Replica.node g.(0)) c.groups)
    ~partition:c.partition
    ~on_finish:(fun r -> c.history := r :: !(c.history))
    ()

let load c pairs =
  Array.iter (fun group -> Array.iter (fun r -> Spanner.Replica.load r pairs) group) c.groups

let value_at c key = Spanner.Replica.read_current c.groups.(c.partition key).(0) key

let increment client key (done_ : Outcome.t -> unit) =
  Spanner.Client.begin_ client (fun ctx ->
      Spanner.Client.get_for_update client ctx key (fun ctx v ->
          let n = if String.equal v "" then 0 else int_of_string v in
          let ctx = Spanner.Client.put client ctx key (string_of_int (n + 1)) in
          Spanner.Client.commit client ctx done_))

let increment_loop c client key ~count =
  let committed = ref 0 in
  let rec go remaining attempt =
    if remaining > 0 then
      increment client key (function
        | Outcome.Committed ->
          incr committed;
          go (remaining - 1) 0
        | Outcome.Aborted _ ->
          let cap = 5_000 * (1 lsl min attempt 8) in
          let wait = 1 + Sim.Rng.int c.rng cap in
          ignore
            (Sim.Engine.schedule c.engine ~after:wait (fun () -> go remaining (attempt + 1))))
  in
  go count 0;
  committed

let history_of c =
  List.fold_left
    (fun h (r : Spanner.Client.record) ->
      Adya.History.add h
        {
          Adya.History.ver = r.h_ver;
          reads = r.h_reads;
          writes = r.h_writes;
          committed = r.h_committed;
          start_us = r.h_start_us;
          commit_us = r.h_end_us;
        })
    Adya.History.empty !(c.history)

let assert_serializable c =
  match Adya.Dsg.check (history_of c) with
  | Ok () -> ()
  | Error viol ->
    Alcotest.failf "history not serializable: %a" Adya.Dsg.pp_violation viol

let test_single_txn_commit_wait () =
  let c = make_cluster () in
  load c [ ("x", "1") ];
  let client = make_client c in
  let o = ref None in
  let done_at = ref 0 in
  increment client "x" (fun out ->
      o := Some out;
      done_at := Sim.Engine.now c.engine);
  Sim.Engine.run c.engine;
  Alcotest.(check bool) "committed" true (!o = Some Outcome.Committed);
  Alcotest.(check (option string)) "installed" (Some "2") (value_at c "x");
  (* Latency must include the 10ms TrueTime commit wait. *)
  Alcotest.(check bool) "commit wait paid" true (!done_at >= 10_000)

let test_contended_counter () =
  let c = make_cluster () in
  load c [ ("ctr", "0") ];
  let clients = List.init 4 (fun i -> make_client ~az:(i mod 3) c) in
  List.iter (fun cl -> ignore (increment_loop c cl "ctr" ~count:8)) clients;
  Sim.Engine.run c.engine;
  Alcotest.(check (option string)) "counter equals commits" (Some "32") (value_at c "ctr");
  assert_serializable c

let test_wound_wait_aborts_younger () =
  let c = make_cluster () in
  load c [ ("x", "0") ];
  let c1 = make_client ~az:0 c in
  let c2 = make_client ~az:1 c in
  let o2 = ref None in
  (* c2 (younger) grabs the write lock and dawdles; c1 (older) then
     requests it and wounds c2. *)
  ignore
    (Sim.Engine.schedule c.engine ~after:1_000 (fun () ->
         Spanner.Client.begin_ c2 (fun ctx ->
             Spanner.Client.get_for_update c2 ctx "x" (fun ctx _ ->
                 ignore
                   (Sim.Engine.schedule c.engine ~after:200_000 (fun () ->
                        let ctx = Spanner.Client.put c2 ctx "x" "5" in
                        Spanner.Client.commit c2 ctx (fun out -> o2 := Some out)))))));
  let o1 = ref None in
  ignore
    (Sim.Engine.schedule c.engine ~after:40_000 (fun () -> increment c1 "x" (fun out -> o1 := Some out)));
  Sim.Engine.run c.engine;
  (* c2 began first so it is OLDER (smaller timestamp) than c1...
     wound-wait then makes c1 wait.  Swap roles: the dawdler is younger
     when it begins later.  Here c2 began at 1ms, c1 at 40ms, so c1 is
     younger and must WAIT; both commit. *)
  Alcotest.(check bool) "holder commits" true (!o2 = Some Outcome.Committed);
  Alcotest.(check bool) "waiter commits" true (!o1 = Some Outcome.Committed);
  Alcotest.(check (option string)) "final value reflects both" (Some "6") (value_at c "x");
  assert_serializable c

let test_older_wounds_younger_holder () =
  let c = make_cluster () in
  load c [ ("x", "0") ];
  let c1 = make_client ~az:0 c in
  let c2 = make_client ~az:1 c in
  (* c1 begins FIRST (older) but is slow; c2 begins later (younger),
     grabs the lock and dawdles; c1's later request wounds c2. *)
  let o1 = ref None and o2 = ref None in
  let c1_ctx = ref None in
  Spanner.Client.begin_ c1 (fun ctx -> c1_ctx := Some ctx);
  ignore
    (Sim.Engine.schedule c.engine ~after:5_000 (fun () ->
         Spanner.Client.begin_ c2 (fun ctx ->
             Spanner.Client.get_for_update c2 ctx "x" (fun ctx _ ->
                 ignore
                   (Sim.Engine.schedule c.engine ~after:300_000 (fun () ->
                        let ctx = Spanner.Client.put c2 ctx "x" "c2" in
                        Spanner.Client.commit c2 ctx (fun out -> o2 := Some out)))))));
  ignore
    (Sim.Engine.schedule c.engine ~after:50_000 (fun () ->
         match !c1_ctx with
         | None -> Alcotest.fail "c1 did not begin"
         | Some ctx ->
           Spanner.Client.get_for_update c1 ctx "x" (fun ctx _ ->
               let ctx = Spanner.Client.put c1 ctx "x" "c1" in
               Spanner.Client.commit c1 ctx (fun out -> o1 := Some out))));
  Sim.Engine.run c.engine;
  Alcotest.(check bool) "older commits" true (!o1 = Some Outcome.Committed);
  Alcotest.(check bool) "younger wounded" true (match !o2 with Some (Outcome.Aborted _) -> true | _ -> false);
  Alcotest.(check (option string)) "older's write stands" (Some "c1") (value_at c "x");
  let wounds =
    Array.fold_left
      (fun acc g -> acc + (Spanner.Replica.stats g.(0)).wounds)
      0 c.groups
  in
  Alcotest.(check bool) "a wound happened" true (wounds > 0);
  assert_serializable c

let test_read_only_snapshot () =
  let c = make_cluster () in
  load c [ ("a", "1"); ("b", "2") ];
  let client = make_client c in
  let seen = ref [] in
  let committed = ref false in
  (* Give the snapshot timestamp (now - eps) time to cover the load. *)
  ignore
    (Sim.Engine.schedule c.engine ~after:50_000 (fun () ->
         Spanner.Client.begin_ro client (fun ctx ->
             Spanner.Client.get client ctx "a" (fun ctx va ->
                 Spanner.Client.get client ctx "b" (fun ctx vb ->
                     seen := [ va; vb ];
                     Spanner.Client.commit client ctx (fun o ->
                         committed := Cc_types.Outcome.is_committed o))))));
  Sim.Engine.run c.engine;
  Alcotest.(check (list string)) "snapshot values" [ "1"; "2" ] !seen;
  Alcotest.(check bool) "ro committed" true !committed

let test_multi_group_2pc () =
  let cfg = { Spanner.Config.default with n_groups = 4 } in
  let c = make_cluster ~cfg () in
  load c [ ("k0", "0"); ("k1", "0"); ("k2", "0"); ("k3", "0") ];
  let client = make_client c in
  let o = ref None in
  Spanner.Client.begin_ client (fun ctx ->
      Spanner.Client.get_for_update client ctx "k0" (fun ctx _ ->
          Spanner.Client.get_for_update client ctx "k3" (fun ctx _ ->
              let ctx = Spanner.Client.put client ctx "k0" "a" in
              let ctx = Spanner.Client.put client ctx "k3" "b" in
              Spanner.Client.commit client ctx (fun out -> o := Some out))));
  Sim.Engine.run c.engine;
  Alcotest.(check bool) "committed" true (!o = Some Outcome.Committed);
  Alcotest.(check (option string)) "k0" (Some "a") (value_at c "k0");
  Alcotest.(check (option string)) "k3" (Some "b") (value_at c "k3");
  assert_serializable c

let qcheck_spanner_serializable =
  QCheck.Test.make ~name:"spanner random contention serializable" ~count:8
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, n_clients) ->
      let c = make_cluster ~seed () in
      load c [ ("a", "0"); ("b", "0") ];
      let clients = List.init n_clients (fun i -> make_client ~az:(i mod 3) c) in
      List.iter (fun cl -> ignore (increment_loop c cl "a" ~count:4)) clients;
      List.iter (fun cl -> ignore (increment_loop c cl "b" ~count:4)) clients;
      Sim.Engine.run c.engine;
      Adya.Dsg.is_serializable (history_of c))

(* Spanner's long timers are the follower-read timeouts: one stays
   queued after a snapshot read commits.  It must hold ids, not the
   transaction, so the body and the outcome continuation (the only
   holders of [marker]) are collectable once the outcome has run. *)
let start_marked_ro client weak =
  let marker = ref 0 and outcome = ref None in
  Weak.set weak 0 (Some marker);
  Spanner.Client.begin_ro client (fun ctx ->
      Spanner.Client.get client ctx "x" (fun ctx _ ->
          Spanner.Client.commit client ctx (fun o ->
              incr marker;
              outcome := Some o)));
  outcome
[@@inline never]

let test_finished_txn_collectable () =
  let cfg = { Spanner.Config.default with max_staleness_us = 1_000_000 } in
  let c = make_cluster ~cfg () in
  load c [ ("x", "0") ];
  let client =
    Spanner.Client.create ~cfg ~engine:c.engine ~net:c.net ~rng:(Sim.Rng.split c.rng)
      ~region:(Simnet.Latency.Az 0)
      ~leaders:(Array.map (fun g -> Spanner.Replica.node g.(0)) c.groups)
      ~groups:(Array.map (Array.map Spanner.Replica.node) c.groups)
      ~partition:c.partition ()
  in
  (* Let the snapshot timestamp (now - eps) cover the load. *)
  Sim.Engine.run_until c.engine ~limit:50_000;
  let weak = Weak.create 1 in
  let outcome = start_marked_ro client weak in
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
    ( "spanner.locks",
      [
        Alcotest.test_case "read locks shared" `Quick test_lock_read_shared;
        Alcotest.test_case "write exclusive" `Quick test_lock_write_exclusive;
        Alcotest.test_case "wound younger holder" `Quick test_wound_younger_holder;
        Alcotest.test_case "immune holder not wounded" `Quick test_immune_holder_not_wounded;
        Alcotest.test_case "release promotes by age" `Quick test_release_promotes_fifo_by_age;
        Alcotest.test_case "promote wounds blocker" `Quick test_promote_wounds_younger_blocker;
        Alcotest.test_case "upgrade read to write" `Quick test_upgrade_read_to_write;
        Alcotest.test_case "reacquire idempotent" `Quick test_reacquire_idempotent;
      ] );
    ( "spanner",
      [
        Alcotest.test_case "single txn + commit wait" `Quick test_single_txn_commit_wait;
        Alcotest.test_case "contended counter" `Quick test_contended_counter;
        Alcotest.test_case "younger waits" `Quick test_wound_wait_aborts_younger;
        Alcotest.test_case "older wounds younger" `Quick test_older_wounds_younger_holder;
        Alcotest.test_case "read-only snapshot" `Quick test_read_only_snapshot;
        Alcotest.test_case "multi-group 2pc" `Quick test_multi_group_2pc;
        Alcotest.test_case "finished transaction is collectable while its timers are queued"
          `Quick test_finished_txn_collectable;
        QCheck_alcotest.to_alcotest qcheck_spanner_serializable;
      ] );
  ]
