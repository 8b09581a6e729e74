(* Tests for the TAPIR baseline: OCC commits, abort-and-retry under
   contention, multi-group 2PC, serializability. *)

module Version = Cc_types.Version
module Outcome = Cc_types.Outcome

type cluster = {
  engine : Sim.Engine.t;
  net : Tapir.Msg.t Simnet.Net.t;
  rng : Sim.Rng.t;
  groups : Tapir.Replica.t array array;
  cfg : Tapir.Config.t;
  partition : string -> int;
  history : Tapir.Client.record list ref;
}

let make_cluster ?(cfg = Tapir.Config.default) ?(cores = 1) ?(seed = 11) () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create seed in
  let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:Simnet.Latency.Reg () in
  let groups =
    Array.init cfg.n_groups (fun g ->
        Array.init (Tapir.Config.n_replicas cfg) (fun i ->
            Tapir.Replica.create ~cfg ~engine ~net ~group:g ~index:i
              ~region:(Simnet.Latency.Az i) ~cores ()))
  in
  let partition key = Hashtbl.hash key mod cfg.n_groups in
  { engine; net; rng; groups; cfg; partition; history = ref [] }

let make_client ?(az = 0) c =
  Tapir.Client.create ~cfg:c.cfg ~engine:c.engine ~net:c.net
    ~rng:(Sim.Rng.split c.rng) ~region:(Simnet.Latency.Az az)
    ~groups:(Array.map (Array.map Tapir.Replica.node) c.groups)
    ~partition:c.partition
    ~on_finish:(fun r -> c.history := r :: !(c.history))
    ()

let load c pairs =
  Array.iter (fun group -> Array.iter (fun r -> Tapir.Replica.load r pairs) group) c.groups

let value_at c key =
  Tapir.Replica.read_current c.groups.(c.partition key).(0) key

let increment client key (done_ : Outcome.t -> unit) =
  Tapir.Client.begin_ client (fun ctx ->
      Tapir.Client.get client ctx key (fun ctx v ->
          let n = if String.equal v "" then 0 else int_of_string v in
          let ctx = Tapir.Client.put client ctx key (string_of_int (n + 1)) in
          Tapir.Client.commit client ctx done_))

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
    (fun h (r : Tapir.Client.record) ->
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
  | Error v -> Alcotest.failf "history not serializable: %a" Adya.Dsg.pp_violation v

let test_single_txn () =
  let c = make_cluster () in
  load c [ ("x", "1") ];
  let client = make_client c in
  let o = ref None in
  increment client "x" (fun out -> o := Some out);
  Sim.Engine.run c.engine;
  Alcotest.(check bool) "committed" true (!o = Some Outcome.Committed);
  Alcotest.(check (option string)) "installed" (Some "2") (value_at c "x");
  let st = Tapir.Client.stats client in
  Alcotest.(check int) "fast path" 1 st.fast_commits;
  assert_serializable c

let test_contended_counter () =
  let c = make_cluster () in
  load c [ ("ctr", "0") ];
  let clients = List.init 4 (fun i -> make_client ~az:(i mod 3) c) in
  List.iter (fun cl -> ignore (increment_loop c cl "ctr" ~count:10)) clients;
  Sim.Engine.run c.engine;
  Alcotest.(check (option string)) "counter equals commits" (Some "40") (value_at c "ctr");
  let aborted = List.fold_left (fun a cl -> a + (Tapir.Client.stats cl).aborted) 0 clients in
  Alcotest.(check bool) "aborts under contention" true (aborted > 0);
  assert_serializable c

let test_multi_group () =
  let cfg = { Tapir.Config.default with n_groups = 4 } in
  let c = make_cluster ~cfg () in
  let keys = List.init 16 (fun i -> Printf.sprintf "k%d" i) in
  load c (List.map (fun k -> (k, "0")) keys);
  let client = make_client c in
  (* A transaction spanning several groups. *)
  let o = ref None in
  Tapir.Client.begin_ client (fun ctx ->
      Tapir.Client.get client ctx "k0" (fun ctx _ ->
          Tapir.Client.get client ctx "k7" (fun ctx _ ->
              let ctx = Tapir.Client.put client ctx "k0" "5" in
              let ctx = Tapir.Client.put client ctx "k7" "6" in
              Tapir.Client.commit client ctx (fun out -> o := Some out))));
  Sim.Engine.run c.engine;
  Alcotest.(check bool) "committed" true (!o = Some Outcome.Committed);
  Alcotest.(check (option string)) "k0" (Some "5") (value_at c "k0");
  Alcotest.(check (option string)) "k7" (Some "6") (value_at c "k7");
  assert_serializable c

let test_stale_read_aborts () =
  (* A transaction that reads, then loses the race to a faster writer,
     must abort at validation. *)
  let c = make_cluster () in
  load c [ ("x", "0") ];
  let c1 = make_client ~az:0 c in
  let c2 = make_client ~az:1 c in
  let o1 = ref None and o2 = ref None in
  (* c1 reads x then sits on it for 100ms before committing. *)
  Tapir.Client.begin_ c1 (fun ctx ->
      Tapir.Client.get c1 ctx "x" (fun ctx v ->
          ignore v;
          ignore
            (Sim.Engine.schedule c.engine ~after:100_000 (fun () ->
                 let ctx = Tapir.Client.put c1 ctx "x" "from-c1" in
                 Tapir.Client.commit c1 ctx (fun out -> o1 := Some out)))));
  (* c2 commits its own update promptly. *)
  ignore
    (Sim.Engine.schedule c.engine ~after:20_000 (fun () ->
         Tapir.Client.begin_ c2 (fun ctx ->
             Tapir.Client.get c2 ctx "x" (fun ctx _ ->
                 let ctx = Tapir.Client.put c2 ctx "x" "from-c2" in
                 Tapir.Client.commit c2 ctx (fun out -> o2 := Some out)))));
  Sim.Engine.run c.engine;
  Alcotest.(check bool) "c2 committed" true (!o2 = Some Outcome.Committed);
  Alcotest.(check bool) "c1 aborted" true (match !o1 with Some (Outcome.Aborted _) -> true | _ -> false);
  Alcotest.(check (option string)) "c2's write stands" (Some "from-c2") (value_at c "x");
  assert_serializable c

let test_read_only_commits () =
  let c = make_cluster () in
  load c [ ("a", "1"); ("b", "2") ];
  let client = make_client c in
  let seen = ref [] in
  Tapir.Client.begin_ro client (fun ctx ->
      Tapir.Client.get client ctx "a" (fun ctx va ->
          Tapir.Client.get client ctx "b" (fun ctx vb ->
              seen := [ va; vb ];
              Tapir.Client.commit client ctx (fun _ -> ()))));
  Sim.Engine.run c.engine;
  Alcotest.(check (list string)) "values" [ "1"; "2" ] !seen

let qcheck_tapir_serializable =
  QCheck.Test.make ~name:"tapir random contention serializable" ~count:10
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, n_clients) ->
      let c = make_cluster ~seed () in
      load c [ ("a", "0"); ("b", "0") ];
      let clients = List.init n_clients (fun i -> make_client ~az:(i mod 3) c) in
      List.iter (fun cl -> ignore (increment_loop c cl "a" ~count:5)) clients;
      List.iter (fun cl -> ignore (increment_loop c cl "b" ~count:5)) clients;
      Sim.Engine.run c.engine;
      Adya.Dsg.is_serializable (history_of c))

(* TAPIR's commit timer stays queued after a fast-path commit; it must
   hold the transaction's id, not the transaction, so the body and the
   outcome continuation (the only holders of [marker]) are collectable
   once the outcome has run. *)
let start_marked_txn client weak =
  let marker = ref 0 and outcome = ref None in
  Weak.set weak 0 (Some marker);
  Tapir.Client.begin_ client (fun ctx ->
      Tapir.Client.get client ctx "x" (fun ctx v ->
          let ctx = Tapir.Client.put client ctx "x" (v ^ "1") in
          Tapir.Client.commit client ctx (fun o ->
              incr marker;
              outcome := Some o)));
  outcome
[@@inline never]

let test_finished_txn_collectable () =
  let c = make_cluster () in
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
    ( "tapir",
      [
        Alcotest.test_case "single txn" `Quick test_single_txn;
        Alcotest.test_case "contended counter" `Quick test_contended_counter;
        Alcotest.test_case "multi group" `Quick test_multi_group;
        Alcotest.test_case "stale read aborts" `Quick test_stale_read_aborts;
        Alcotest.test_case "read-only commits" `Quick test_read_only_commits;
        Alcotest.test_case "finished transaction is collectable while its timers are queued"
          `Quick test_finished_txn_collectable;
        QCheck_alcotest.to_alcotest qcheck_tapir_serializable;
      ] );
  ]
