(* Availability-under-partitions tests: named datacenter cuts on the
   raw simulated network, the shared retry-backoff helpers, the
   availability accountant, and end-to-end follower reads — every
   system keeps serving watermark-bounded RO transactions through
   kill/restart and partition schedules, with the online monitors and
   the Adya oracle both clean. *)

module Net = Simnet.Net

(* ---------------------------------------------------------------- *)
(* Named partition groups on the raw network.                       *)
(* ---------------------------------------------------------------- *)

type mesh = {
  engine : Sim.Engine.t;
  net : unit Net.t;
  nodes : Net.node array;
  received : int array;  (* deliveries per destination node *)
}

let make_mesh ?(n = 3) () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 11 in
  let net = Net.create engine (Sim.Rng.split rng) ~setup:Simnet.Latency.Reg () in
  let nodes =
    Array.init n (fun i -> Net.add_node net ~region:(Simnet.Latency.Az i))
  in
  let received = Array.make n 0 in
  Array.iteri
    (fun i node ->
      Net.set_handler net node (fun ~src:_ () ->
          received.(i) <- received.(i) + 1))
    nodes;
  { engine; net; nodes; received }

let drain m = Sim.Engine.run m.engine

let send m ~src ~dst = Net.send m.net ~src:m.nodes.(src) ~dst:m.nodes.(dst) ()

(* One named cut severs the group both ways, repeating it is a no-op,
   and healing the name restores connectivity exactly. *)
let test_cut_group_basic () =
  let m = make_mesh () in
  send m ~src:1 ~dst:0;
  drain m;
  Alcotest.(check int) "pre-cut delivery" 1 m.received.(0);
  Net.cut_group m.net ~name:"dc0" ~group:[ m.nodes.(0) ] ();
  Alcotest.(check bool) "cut active" true (Net.partition_active m.net ~name:"dc0");
  (* Re-cutting the same name with a different group must be a no-op:
     node 1 stays connected to node 2. *)
  Net.cut_group m.net ~name:"dc0" ~group:[ m.nodes.(1) ] ();
  send m ~src:1 ~dst:0;
  send m ~src:0 ~dst:1;
  send m ~src:1 ~dst:2;
  drain m;
  Alcotest.(check int) "into the cut group: dropped" 1 m.received.(0);
  Alcotest.(check int) "out of the cut group: dropped" 0 m.received.(1);
  Alcotest.(check int) "outside the group: delivered" 1 m.received.(2);
  Net.heal_group m.net ~name:"dc0";
  Alcotest.(check bool) "cut cleared" false (Net.partition_active m.net ~name:"dc0");
  send m ~src:1 ~dst:0;
  drain m;
  Alcotest.(check int) "post-heal delivery" 2 m.received.(0)

(* Overlapping cuts own disjoint link sets: healing the larger cut
   leaves the smaller one's links severed, healing both restores
   everything. *)
let test_cut_group_overlap () =
  let m = make_mesh () in
  Net.cut_group m.net ~name:"a" ~group:[ m.nodes.(0) ] ();
  Net.cut_group m.net ~name:"b" ~group:[ m.nodes.(0); m.nodes.(1) ] ();
  send m ~src:2 ~dst:0;
  send m ~src:2 ~dst:1;
  drain m;
  Alcotest.(check int) "both cuts active: n0 cut" 0 m.received.(0);
  Alcotest.(check int) "both cuts active: n1 cut" 0 m.received.(1);
  (* Heal b: n1 was severed only by b, so it comes back; n0's links
     belong to a and must stay cut. *)
  Net.heal_group m.net ~name:"b";
  send m ~src:2 ~dst:0;
  send m ~src:2 ~dst:1;
  drain m;
  Alcotest.(check int) "a still cuts n0" 0 m.received.(0);
  Alcotest.(check int) "healing b restores n1" 1 m.received.(1);
  Net.heal_group m.net ~name:"a";
  send m ~src:2 ~dst:0;
  drain m;
  Alcotest.(check int) "healing a restores n0" 1 m.received.(0)

(* Asymmetric cuts model one-way reachability loss. *)
let test_cut_group_asymmetric () =
  let m = make_mesh () in
  Net.cut_group m.net ~name:"out" ~group:[ m.nodes.(0) ] ~dir:`Out ();
  send m ~src:0 ~dst:1;
  send m ~src:1 ~dst:0;
  drain m;
  Alcotest.(check int) "`Out drops leaving messages" 0 m.received.(1);
  Alcotest.(check int) "`Out delivers entering messages" 1 m.received.(0);
  Net.heal_group m.net ~name:"out";
  Net.cut_group m.net ~name:"in" ~group:[ m.nodes.(0) ] ~dir:`In ();
  send m ~src:0 ~dst:1;
  send m ~src:1 ~dst:0;
  drain m;
  Alcotest.(check int) "`In delivers leaving messages" 1 m.received.(1);
  Alcotest.(check int) "`In drops entering messages" 1 m.received.(0)

(* Cuts drop at send time: a message already in flight across the
   boundary still arrives after the cut lands. *)
let test_cut_group_in_flight () =
  let m = make_mesh () in
  send m ~src:1 ~dst:0;
  Net.cut_group m.net ~name:"dc0" ~group:[ m.nodes.(0) ] ();
  send m ~src:1 ~dst:0;
  drain m;
  Alcotest.(check int) "in-flight arrives, post-cut send dropped" 1
    m.received.(0)

(* ---------------------------------------------------------------- *)
(* Shared retry backoff.                                            *)
(* ---------------------------------------------------------------- *)

let test_full_jitter_bounds () =
  let rng = Sim.Rng.create 3 in
  let base_us = 1_000 and cap_us = 64_000 in
  for attempt = 0 to 12 do
    for _ = 1 to 50 do
      let v = Sim.Backoff.full_jitter rng ~base_us ~cap_us ~attempt in
      let ceiling = min cap_us (base_us * (1 lsl min attempt 8)) in
      if v < 1 || v > ceiling then
        Alcotest.failf "full_jitter attempt=%d drew %d outside [1, %d]" attempt
          v ceiling
    done
  done

let test_full_jitter_deterministic () =
  let draw seed =
    let rng = Sim.Rng.create seed in
    List.init 20 (fun attempt ->
        Sim.Backoff.full_jitter rng ~base_us:500 ~cap_us:100_000 ~attempt)
  in
  Alcotest.(check (list int)) "same seed, same waits" (draw 9) (draw 9);
  Alcotest.(check bool) "different seed, different waits" true
    (draw 9 <> draw 10)

let test_equal_jitter_bounds () =
  let rng = Sim.Rng.create 4 in
  let base_us = 2_000 in
  for attempt = 0 to 10 do
    for _ = 1 to 50 do
      let v = Sim.Backoff.equal_jitter rng ~base_us ~attempt () in
      let det = base_us * (1 lsl min attempt 6) in
      if v < det || v > det + (det / 2) then
        Alcotest.failf "equal_jitter attempt=%d drew %d outside [%d, %d]"
          attempt v det (det + (det / 2))
    done
  done

(* ---------------------------------------------------------------- *)
(* Availability accountant.                                         *)
(* ---------------------------------------------------------------- *)

let test_avail_rates () =
  let a = Harness.Avail.create () in
  let note ~ro ~committed ?(staleness_us = 0) ?(in_window = true) now =
    Harness.Avail.note_txn a ~now ~in_window ~ro ~committed ~staleness_us
  in
  note ~ro:true ~committed:true ~staleness_us:10_000 1_000;
  note ~ro:true ~committed:true ~staleness_us:20_000 2_000;
  note ~ro:true ~committed:true ~staleness_us:30_000 3_000;
  note ~ro:true ~committed:false 4_000;
  note ~ro:false ~committed:true 5_000;
  note ~ro:false ~committed:true 6_000;
  note ~ro:false ~committed:false 7_000;
  note ~ro:false ~committed:false 8_000;
  (* Outside the measurement window: must not move any rate. *)
  note ~ro:true ~committed:false ~in_window:false 9_000;
  let r = Harness.Avail.result a in
  Alcotest.(check int) "ro committed" 3 r.Harness.Stats.av_ro_committed;
  Alcotest.(check int) "ro aborted" 1 r.Harness.Stats.av_ro_aborted;
  Alcotest.(check (float 1e-9)) "read avail" 0.75 r.Harness.Stats.av_read_avail;
  Alcotest.(check (float 1e-9)) "write avail" 0.5 r.Harness.Stats.av_write_avail;
  Alcotest.(check bool) "staleness p99 within recorded range" true
    (r.Harness.Stats.av_stale_p99_ms >= 10. && r.Harness.Stats.av_stale_p99_ms <= 31.)

let test_avail_idle_is_available () =
  let r = Harness.Avail.result (Harness.Avail.create ()) in
  Alcotest.(check (float 1e-9)) "idle read avail" 1.0 r.Harness.Stats.av_read_avail;
  Alcotest.(check (float 1e-9)) "idle write avail" 1.0 r.Harness.Stats.av_write_avail

let test_avail_ttr () =
  let a = Harness.Avail.create ~fresh_us:5_000 () in
  let note ~ro ~committed ?(staleness_us = 0) now =
    Harness.Avail.note_txn a ~now ~in_window:true ~ro ~committed ~staleness_us
  in
  (* Commits before any heal leave both clocks untouched. *)
  note ~ro:false ~committed:true 10_000;
  Alcotest.(check int) "no heal, no ttr" 0 (Harness.Avail.ttr_write_us a);
  Harness.Avail.note_heal a ~now:100_000;
  (* Aborts do not answer a heal; a too-stale RO commit answers the
     write clock question for nobody and the watermark clock only once
     a fresh snapshot is served. *)
  note ~ro:false ~committed:false 100_200;
  note ~ro:true ~committed:true ~staleness_us:40_000 100_400;
  Alcotest.(check int) "stale ro: wm clock still waiting" 0
    (Harness.Avail.ttr_wm_us a);
  note ~ro:false ~committed:true 100_500;
  note ~ro:true ~committed:true ~staleness_us:1_000 101_000;
  Alcotest.(check int) "ttr write" 500 (Harness.Avail.ttr_write_us a);
  Alcotest.(check int) "ttr watermark" 1_000 (Harness.Avail.ttr_wm_us a);
  (* First qualifying commit wins; later ones do not move the clock. *)
  note ~ro:false ~committed:true 150_000;
  Alcotest.(check int) "ttr write latched" 500 (Harness.Avail.ttr_write_us a);
  (* A second heal restarts both clocks, and a commit at the very heal
     instant still reads as recovered (sentinel 1). *)
  Harness.Avail.note_heal a ~now:200_000;
  Alcotest.(check int) "second heal resets" 0 (Harness.Avail.ttr_write_us a);
  note ~ro:false ~committed:true 200_000;
  Alcotest.(check int) "same-instant commit sentinel" 1
    (Harness.Avail.ttr_write_us a)

(* ---------------------------------------------------------------- *)
(* End-to-end follower reads under fault schedules.                 *)
(* ---------------------------------------------------------------- *)

let small_exp sys seed =
  {
    Harness.Run.default_exp with
    e_system = sys;
    e_clients = 6;
    e_cores = 2;
    e_warmup_us = 30_000;
    (* Commit latencies on the geo REG setup run 50–100 ms, so the
       window must dwarf both the outage and a few latency multiples or
       nothing lands in it. *)
    e_measure_us = 400_000;
    (* 80 % reads: a transaction goes through [begin_ro] only when all
       its ops are reads, so the RO share is 0.8^4 ≈ 41 % — enough RO
       traffic to measure read availability in a short window. *)
    e_workload =
      Harness.Run.Ycsb
        {
          Workload.Ycsb.n_keys = 200;
          theta = 0.9;
          ops_per_txn = 4;
          read_pct = 80;
        };
    e_seed = seed;
    e_label = Harness.Run.system_name sys;
    e_max_staleness_us = 60_000;
  }

let sched evs =
  Explore.Schedule.of_list
    (List.map (fun (at_us, ev) -> { Explore.Schedule.at_us; ev }) evs)

let kill_schedule =
  sched
    [ (60_000, Explore.Schedule.Kill 1); (140_000, Explore.Schedule.Restart 1) ]

let partition_schedule =
  sched
    [
      (80_000, Explore.Schedule.Partition 1);
      (160_000, Explore.Schedule.Heal 1);
    ]

let run_audited_clean ~name ?faults exp =
  let monitor = Obs.Monitor.create () in
  let r, h =
    Harness.Run.run_exp_audited ?faults ~obs:(Obs.Bus.create ~monitor ()) exp
  in
  (match Explore.Audit.check h r with
  | Ok () -> ()
  | Error v ->
    Alcotest.failf "%s: audit violation: %s" name
      (Explore.Audit.violation_to_string v));
  (match Obs.Monitor.violations monitor with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: %d monitor violation(s), first: %s" name
      (Obs.Monitor.n_violations monitor)
      (Format.asprintf "%a" Obs.Monitor.pp_violation v));
  r

(* Every system keeps committing watermark-bounded RO transactions
   through an amnesia kill/restart and through a datacenter partition,
   with a serializable history and zero monitor violations. *)
let test_follower_reads_under_faults () =
  List.iter
    (fun sys ->
      let name = Harness.Run.system_name sys in
      List.iter
        (fun (kind, schedule) ->
          let label = Printf.sprintf "%s/%s" name kind in
          let r =
            run_audited_clean ~name:label
              ~faults:(Explore.Schedule.apply schedule)
              (small_exp sys 5)
          in
          let a = r.Harness.Stats.r_avail in
          if a.Harness.Stats.av_ro_committed = 0 then
            Alcotest.failf "%s: no RO transaction committed" label;
          if r.Harness.Stats.r_committed = 0 then
            Alcotest.failf "%s: no transaction committed" label)
        [ ("kill", kill_schedule); ("partition", partition_schedule) ])
    Harness.Run.all_systems

(* Headline scenario: cut a minority datacenter mid-measurement and
   heal it before the end, with the staleness bound set comfortably
   above the outage length.  Reads ride through the partition fully
   available (served at bounded staleness, including inside the cut
   region by its own replica), writes degrade — both in success rate
   and against an unpartitioned baseline of the same seed — the
   staleness bound holds at p99, and the accountant reports
   time-to-recover for both writes and watermark freshness. *)
let test_partition_headline () =
  let exp =
    { (small_exp Harness.Run.Morty 3) with e_max_staleness_us = 150_000 }
  in
  let base = run_audited_clean ~name:"morty/headline-base" exp in
  let r =
    run_audited_clean ~name:"morty/headline"
      ~faults:(Explore.Schedule.apply partition_schedule)
      exp
  in
  let a = r.Harness.Stats.r_avail in
  if a.Harness.Stats.av_ro_committed = 0 then
    Alcotest.failf "headline: no RO transaction committed";
  if a.Harness.Stats.av_read_avail < 0.99 then
    Alcotest.failf "headline: read availability %.4f < 0.99"
      a.Harness.Stats.av_read_avail;
  if a.Harness.Stats.av_write_avail >= a.Harness.Stats.av_read_avail then
    Alcotest.failf "headline: writes (%.4f) as available as reads (%.4f)"
      a.Harness.Stats.av_write_avail a.Harness.Stats.av_read_avail;
  let rw res =
    res.Harness.Stats.r_committed
    - res.Harness.Stats.r_avail.Harness.Stats.av_ro_committed
  in
  if rw r >= rw base then
    Alcotest.failf
      "headline: read-write commits did not degrade (%d partitioned vs %d \
       baseline)"
      (rw r) (rw base);
  (* The p99 staleness respects the 150 ms bound; the streaming HDR
     histogram interpolates within the observed range, so allow its
     quantisation error on top. *)
  if a.Harness.Stats.av_stale_p99_ms > 165. then
    Alcotest.failf "headline: staleness p99 %.1f ms breaks the 150 ms bound"
      a.Harness.Stats.av_stale_p99_ms;
  let rc = r.Harness.Stats.r_recovery in
  if rc.Harness.Stats.rc_ttr_write_us <= 0 then
    Alcotest.failf "headline: no write time-to-recover after the heal";
  if rc.Harness.Stats.rc_ttr_wm_us <= 0 then
    Alcotest.failf "headline: watermark freshness never recovered after the heal"

let suites =
  [
    ( "avail.net",
      [
        Alcotest.test_case "named cut + heal" `Quick test_cut_group_basic;
        Alcotest.test_case "overlapping cuts" `Quick test_cut_group_overlap;
        Alcotest.test_case "asymmetric cuts" `Quick test_cut_group_asymmetric;
        Alcotest.test_case "in-flight delivery" `Quick test_cut_group_in_flight;
      ] );
    ( "avail.backoff",
      [
        Alcotest.test_case "full jitter bounds" `Quick test_full_jitter_bounds;
        Alcotest.test_case "full jitter deterministic" `Quick
          test_full_jitter_deterministic;
        Alcotest.test_case "equal jitter bounds" `Quick test_equal_jitter_bounds;
      ] );
    ( "avail.accountant",
      [
        Alcotest.test_case "rates and window" `Quick test_avail_rates;
        Alcotest.test_case "idle is available" `Quick test_avail_idle_is_available;
        Alcotest.test_case "time to recover" `Quick test_avail_ttr;
      ] );
    ( "avail.ro",
      [
        Alcotest.test_case "follower reads under faults" `Slow
          test_follower_reads_under_faults;
        Alcotest.test_case "partition headline" `Quick test_partition_headline;
      ] );
  ]
