(* Unit tests for the client chassis shared by the Morty, TAPIR and
   Spanner coordinators: id-holding timers, the follower-read redirect
   policy, the write dedup and segment accounting; and, on each stack, the
   [ro] tag of a follower read's [begin] instant. *)

module Version = Cc_types.Version
module Outcome = Cc_types.Outcome

let no_history =
  {
    Chassis.reads = (fun () -> []);
    writes = (fun () -> []);
    ro = (fun () -> false);
    staleness_us = (fun () -> 0);
  }

let make ?on_finish () =
  let engine = Sim.Engine.create () in
  let net = Simnet.Net.create engine (Sim.Rng.create 1) ~setup:Simnet.Latency.Reg () in
  let c =
    Chassis.create ~engine ~net ~region:(Simnet.Latency.Az 0) ~groups:[| [||] |]
      ~obs:(Obs.Bus.null ()) ~on_finish no_history
  in
  (engine, (c : (unit, unit) Chassis.t))

let test_timer_skips_removed_id () =
  let engine, c = make () in
  let tbl = Hashtbl.create 4 in
  Hashtbl.replace tbl 1 "a";
  Hashtbl.replace tbl 2 "b";
  let fired = ref [] in
  let note v = fired := v :: !fired in
  ignore (Chassis.arm c tbl ~after:10 1 note);
  ignore (Chassis.arm c tbl ~after:10 2 note);
  Hashtbl.remove tbl 1;
  (* The timer reads the entry when it fires, not when it was armed. *)
  Hashtbl.replace tbl 2 "b2";
  Sim.Engine.run engine;
  Alcotest.(check (list string)) "only the live id fires, with its current entry"
    [ "b2" ] !fired

(* Arms a timer for an entry whose value is reachable only from the
   table; not inlined, so no stack slot keeps it alive. *)
let arm_marked c tbl weak =
  let v = ref 0 in
  Weak.set weak 0 (Some v);
  Hashtbl.replace tbl 1 v;
  ignore (Chassis.arm c tbl ~after:1_000 1 incr)
[@@inline never]

let test_timer_holds_no_entry () =
  let engine, c = make () in
  let tbl = Hashtbl.create 4 in
  let weak = Weak.create 1 in
  arm_marked c tbl weak;
  Hashtbl.remove tbl 1;
  Gc.full_major ();
  Alcotest.(check bool) "removed entry collected" false (Weak.check weak 0);
  (* Checked after the collection, which keeps the queue reachable. *)
  Alcotest.(check bool) "timer still queued" true (Sim.Engine.pending engine > 0)

let pend () =
  { Chassis.pd_sent = 0; pd_key = "k"; pd_tries = 0; pd_cont = (fun () _ -> ()) }

let test_redirect_cap () =
  let _, c = make () in
  List.iter
    (fun replicas ->
      let cap = max (2 * replicas) 6 in
      Alcotest.(check int) "cap" cap (Chassis.attempt_cap ~replicas);
      let fr = Chassis.follower c ~snap:(-1) in
      let p = pend () in
      let rec go waits =
        match Chassis.redirect fr (Sim.Rng.create 3) ~replicas ~g:0 p with
        | Some _ -> go (waits + 1)
        | None -> waits
      in
      let waits = go 0 in
      Alcotest.(check int) "exhausted at the cap" cap p.pd_tries;
      Alcotest.(check int) "one backoff per earlier attempt" (cap - 1) waits;
      Alcotest.(check int) "rotated once per backoff" (cap - 1) fr.rot.(0))
    [ 1; 2; 3; 5 ];
  Alcotest.(check bool) "a stale reply seen: Stale_replica" true
    (Chassis.exhausted ~saw_stale:true = Obs.Abort_reason.Stale_replica);
  Alcotest.(check bool) "silence only: Timeout" true
    (Chassis.exhausted ~saw_stale:false = Obs.Abort_reason.Timeout)

let test_doom_releases_in_seq_order () =
  let _, c = make () in
  let fr = Chassis.follower c ~snap:0 in
  let released = ref [] in
  let p key = { (pend ()) with Chassis.pd_key = key } in
  Chassis.doom fr Obs.Abort_reason.Timeout
    [ (3, p "c"); (1, p "a"); (2, p "b") ]
    (fun p -> released := p.Chassis.pd_key :: !released);
  Alcotest.(check (list string)) "seq order" [ "a"; "b"; "c" ] (List.rev !released);
  Alcotest.(check bool) "doomed" true (fr.doomed = Some Obs.Abort_reason.Timeout)

let test_final_writes () =
  (* Reverse program order: the first occurrence of a key is its final
     value. *)
  Alcotest.(check (list (pair string string)))
    "final values in reverse program order"
    [ ("a", "3"); ("b", "2"); ("c", "0") ]
    (Chassis.final_writes
       [ ("a", "3"); ("b", "2"); ("a", "1"); ("c", "0"); ("b", "x") ])

let test_segments_sum_to_life () =
  let record = ref None and outcome = ref 0 in
  let engine, c = make ~on_finish:(fun r -> record := Some r) () in
  let at us f = ignore (Sim.Engine.schedule engine ~after:us f) in
  at 7 (fun () ->
      let l = Chassis.begin_ c (Version.make ~ts:7 ~id:0) ~ro:false in
      l.on_outcome <- (fun _ -> incr outcome);
      at 5 (fun () -> Chassis.switch c l ~eid:(Some 0) Chassis.Prep);
      at 9 (fun () -> Chassis.switch c l ~eid:(Some 0) Chassis.Reexec);
      at 20 (fun () -> Chassis.switch c l ~eid:(Some 1) Chassis.Prep);
      at 24 (fun () -> Chassis.switch c l ~eid:(Some 1) Chassis.Fin);
      at 31 (fun () ->
          Chassis.finish c l () Outcome.Committed ~ver:l.ver ~eid:(Some 1)
            ~reexecs:(Some 1)));
  Sim.Engine.run engine;
  match !record with
  | None -> Alcotest.fail "no history record"
  | Some r ->
    Alcotest.(check int) "exec" (5 + 11) r.h_exec_us;
    Alcotest.(check int) "prepare" (4 + 4) r.h_prepare_us;
    Alcotest.(check int) "finalize" 7 r.h_finalize_us;
    Alcotest.(check int) "segments sum to the life" (r.h_end_us - r.h_start_us)
      (r.h_exec_us + r.h_prepare_us + r.h_finalize_us);
    Alcotest.(check int) "outcome continuation once" 1 !outcome

let test_retire_skips_record () =
  let records = ref 0 and outcome = ref 0 in
  let _, c = make ~on_finish:(fun _ -> incr records) () in
  let l = Chassis.begin_ c (Version.make ~ts:1 ~id:0) ~ro:false in
  l.on_outcome <- (fun _ -> incr outcome);
  Chassis.retire c l;
  Alcotest.(check bool) "ended" true (Chassis.ended l);
  Alcotest.(check int) "no record" 0 !records;
  Alcotest.(check int) "no outcome continuation" 0 !outcome

(* --- Follower reads tag their [begin] instant ------------------------- *)

(* [v(ts,id)] begin versions of the trace's [begin] instants with [ro]. *)
let ro_begins sink =
  List.filter_map
    (fun (e : Obs.Sink.event) ->
      match (e.ev_name, List.assoc_opt "ver" e.ev_args) with
      | "begin", Some (Obs.Sink.S v) when List.mem_assoc "ro" e.ev_args -> Some v
      | _ -> None)
    (Obs.Sink.events sink)

let show (v : Version.t) = Printf.sprintf "v(%d,%d)" v.ts v.id

(* Run [n] follower reads of "x" one after another on [begin_ro], then
   check that every recorded follower read began with [ro] set.  [begin_of]
   maps a record's version to its begin version. *)
let check_ro_begins ~engine ~sink ~records ~begin_of run_one =
  Sim.Engine.run_until engine ~limit:50_000;
  let rec loop n = if n > 0 then run_one (fun () -> loop (n - 1)) in
  loop 3;
  Sim.Engine.run_until engine ~limit:5_000_000;
  let ro = List.filter (fun (r : Cc_types.Txn_record.t) -> r.h_ro) !records in
  Alcotest.(check int) "three follower reads recorded" 3 (List.length ro);
  let begins = ro_begins sink in
  List.iter
    (fun (r : Cc_types.Txn_record.t) ->
      let v = show (begin_of r.h_ver) in
      Alcotest.(check bool) (v ^ " began with ro") true (List.mem v begins))
    ro

let test_morty_ro_begin () =
  let cfg = { Morty.Config.default with max_staleness_us = 1_000_000 } in
  let cl = Test_morty.make_cluster ~cfg () in
  Test_morty.load cl [ ("x", "0") ];
  let sink = Obs.Sink.create ~seed:1 and records = ref [] in
  let client =
    Morty.Client.create ~cfg ~engine:cl.engine ~net:cl.net ~rng:(Sim.Rng.split cl.rng)
      ~region:(Simnet.Latency.Az 0)
      ~replicas:(Array.map Morty.Replica.node cl.replicas)
      ~obs:(Obs.Bus.create ~sink ())
      ~on_finish:(fun r -> records := r :: !records)
      ()
  in
  check_ro_begins ~engine:cl.engine ~sink ~records ~begin_of:Fun.id (fun next ->
      Morty.Client.begin_ro client (fun ctx ->
          Morty.Client.get client ctx "x" (fun ctx _ ->
              Morty.Client.commit client ctx (fun _ -> next ()))))

let test_tapir_ro_begin () =
  let cfg = { Tapir.Config.default with max_staleness_us = 1_000_000 } in
  let cl = Test_tapir.make_cluster ~cfg () in
  Test_tapir.load cl [ ("x", "0") ];
  let sink = Obs.Sink.create ~seed:1 and records = ref [] in
  let client =
    Tapir.Client.create ~cfg ~engine:cl.engine ~net:cl.net ~rng:(Sim.Rng.split cl.rng)
      ~region:(Simnet.Latency.Az 0)
      ~groups:(Array.map (Array.map Tapir.Replica.node) cl.groups)
      ~partition:cl.partition ~obs:(Obs.Bus.create ~sink ())
      ~on_finish:(fun r -> records := r :: !records)
      ()
  in
  check_ro_begins ~engine:cl.engine ~sink ~records ~begin_of:Fun.id (fun next ->
      Tapir.Client.begin_ro client (fun ctx ->
          Tapir.Client.get client ctx "x" (fun ctx _ ->
              Tapir.Client.commit client ctx (fun _ -> next ()))))

let test_spanner_ro_begin () =
  let cfg = { Spanner.Config.default with max_staleness_us = 1_000_000 } in
  let cl = Test_spanner.make_cluster ~cfg () in
  Test_spanner.load cl [ ("x", "0") ];
  let sink = Obs.Sink.create ~seed:1 and records = ref [] in
  let client =
    Spanner.Client.create ~cfg ~engine:cl.engine ~net:cl.net
      ~rng:(Sim.Rng.split cl.rng) ~region:(Simnet.Latency.Az 0)
      ~leaders:(Array.map (fun g -> Spanner.Replica.node g.(0)) cl.groups)
      ~groups:(Array.map (Array.map Spanner.Replica.node) cl.groups)
      ~partition:cl.partition ~obs:(Obs.Bus.create ~sink ())
      ~on_finish:(fun r -> records := r :: !records)
      ()
  in
  (* Snapshot reads are recorded under [(begin_ts, -(node+1))]. *)
  let begin_of (v : Version.t) =
    Version.make ~ts:v.ts ~id:(-v.id - 1)
  in
  check_ro_begins ~engine:cl.engine ~sink ~records ~begin_of (fun next ->
      Spanner.Client.begin_ro client (fun ctx ->
          Spanner.Client.get client ctx "x" (fun ctx _ ->
              Spanner.Client.commit client ctx (fun _ -> next ()))))

let suites =
  [
    ( "chassis",
      [
        Alcotest.test_case "timer skips a removed id" `Quick test_timer_skips_removed_id;
        Alcotest.test_case "queued timer holds no removed entry" `Quick
          test_timer_holds_no_entry;
        Alcotest.test_case "redirects exhaust at max(2n, 6)" `Quick test_redirect_cap;
        Alcotest.test_case "doom releases pending reads in seq order" `Quick
          test_doom_releases_in_seq_order;
        Alcotest.test_case "final writes in reverse program order" `Quick
          test_final_writes;
        Alcotest.test_case "segments sum to the transaction's life" `Quick
          test_segments_sum_to_life;
        Alcotest.test_case "retire records nothing" `Quick test_retire_skips_record;
        Alcotest.test_case "morty follower read begins with ro" `Quick
          test_morty_ro_begin;
        Alcotest.test_case "tapir follower read begins with ro" `Quick
          test_tapir_ro_begin;
        Alcotest.test_case "spanner follower read begins with ro" `Quick
          test_spanner_ro_begin;
      ] );
  ]
