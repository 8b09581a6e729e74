(* Tests for the simulated network, latency model and CPU pools. *)

open Simnet

let mk_net ?(setup = Latency.Reg) ?(jitter_us = 0) () =
  let e = Sim.Engine.create () in
  let r = Sim.Rng.create 1 in
  let net = Net.create e r ~setup ~jitter_us () in
  (e, net)

let test_latency_table2_values () =
  let rtt = Latency.rtt_us Latency.Con in
  Alcotest.(check int) "east-west1" 62_000 (rtt Latency.Us_east_1 Latency.Us_west_1);
  Alcotest.(check int) "west1-west2" 22_000 (rtt Latency.Us_west_1 Latency.Us_west_2);
  Alcotest.(check int) "east-east" 0 (rtt Latency.Us_east_1 Latency.Us_east_1);
  let rtt_glo = Latency.rtt_us Latency.Glo in
  Alcotest.(check int) "west1-eu" 138_000 (rtt_glo Latency.Us_west_1 Latency.Eu_west_1)

let test_latency_symmetry () =
  List.iter
    (fun setup ->
      let regions = Latency.regions setup in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              Alcotest.(check int) "symmetric" (Latency.rtt_us setup a b)
                (Latency.rtt_us setup b a))
            regions)
        regions)
    [ Latency.Reg; Latency.Con; Latency.Glo ]

let test_latency_reg_is_10ms () =
  Alcotest.(check int) "REG RTT" 10_000 (Latency.rtt_us Latency.Reg (Latency.Az 0) (Latency.Az 1))

(* Table 2 of the paper (RTT, ms), one entry per unordered pair of the
   AWS regions the CON and GLO setups use. *)
let table2_rtt_ms =
  Latency.
    [
      ((Us_east_1, Us_west_1), 62);
      ((Us_east_1, Us_west_2), 68);
      ((Us_east_1, Eu_west_1), 68);
      ((Us_west_1, Us_west_2), 22);
      ((Us_west_1, Eu_west_1), 138);
      ((Us_west_2, Eu_west_1), 128);
    ]

let test_one_way_every_pair () =
  List.iter
    (fun setup ->
      let regions = Latency.regions setup in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              let expected =
                if i = j then 0
                else
                  match setup with
                  | Latency.Reg -> 5_000
                  | Latency.Con | Latency.Glo ->
                    let rtt =
                      match List.assoc_opt (a, b) table2_rtt_ms with
                      | Some ms -> ms
                      | None -> List.assoc (b, a) table2_rtt_ms
                    in
                    rtt * 1000 / 2
              in
              Alcotest.(check int)
                (Printf.sprintf "%s %s->%s" (Latency.setup_name setup)
                   (Latency.region_name a) (Latency.region_name b))
                expected
                (Latency.one_way_us setup a b))
            regions)
        regions)
    [ Latency.Reg; Latency.Con; Latency.Glo ]

let test_equal_region () =
  let all i =
    Latency.(
      match i with
      | 0 -> Us_east_1
      | 1 -> Us_west_1
      | 2 -> Us_west_2
      | 3 -> Eu_west_1
      | i -> Az (i - 4))
  in
  for i = 0 to 7 do
    for j = 0 to 7 do
      Alcotest.(check bool)
        (Printf.sprintf "%d=%d" i j)
        (i = j)
        (Latency.equal_region (all i) (all j))
    done
  done

let test_net_delivers () =
  let e, net = mk_net () in
  let a = Net.add_node net ~region:(Latency.Az 0) in
  let b = Net.add_node net ~region:(Latency.Az 1) in
  let got = ref None in
  Net.set_handler net b (fun ~src m -> got := Some (src, m));
  Net.send net ~src:a ~dst:b "hello";
  Sim.Engine.run e;
  Alcotest.(check (option (pair int string))) "delivered" (Some (a, "hello")) !got;
  (* One-way REG latency is 5 ms + base 60 us. *)
  Alcotest.(check int) "delivery time" 5_060 (Sim.Engine.now e)

let test_net_fifo_per_pair () =
  let e, net = mk_net ~jitter_us:500 () in
  let a = Net.add_node net ~region:(Latency.Az 0) in
  let b = Net.add_node net ~region:(Latency.Az 1) in
  let got = ref [] in
  Net.set_handler net b (fun ~src:_ m -> got := m :: !got);
  for i = 0 to 19 do
    Net.send net ~src:a ~dst:b i
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fifo" (List.init 20 (fun i -> i)) (List.rev !got)

let test_net_crash_drops () =
  let e, net = mk_net () in
  let a = Net.add_node net ~region:(Latency.Az 0) in
  let b = Net.add_node net ~region:(Latency.Az 1) in
  let got = ref 0 in
  Net.set_handler net b (fun ~src:_ _ -> incr got);
  Net.crash net b;
  Net.send net ~src:a ~dst:b ();
  Sim.Engine.run e;
  Alcotest.(check int) "dropped" 0 !got;
  Alcotest.(check int) "counted" 1 (Net.messages_dropped net);
  Net.recover net b;
  Net.send net ~src:a ~dst:b ();
  Sim.Engine.run e;
  Alcotest.(check int) "delivered after recover" 1 !got

let test_net_crash_mid_flight () =
  let e, net = mk_net () in
  let a = Net.add_node net ~region:(Latency.Az 0) in
  let b = Net.add_node net ~region:(Latency.Az 1) in
  let got = ref 0 in
  Net.set_handler net b (fun ~src:_ _ -> incr got);
  Net.send net ~src:a ~dst:b ();
  (* Crash the destination before the message lands. *)
  ignore (Sim.Engine.schedule e ~after:100 (fun () -> Net.crash net b));
  Sim.Engine.run e;
  Alcotest.(check int) "dropped mid-flight" 0 !got

let test_net_crash_mid_flight_counted () =
  let e, net = mk_net () in
  let a = Net.add_node net ~region:(Latency.Az 0) in
  let b = Net.add_node net ~region:(Latency.Az 1) in
  Net.set_handler net b (fun ~src:_ _ -> ());
  Net.send net ~src:a ~dst:b ();
  ignore (Sim.Engine.schedule e ~after:100 (fun () -> Net.crash net b));
  Sim.Engine.run e;
  (* The in-flight message is accounted as dropped, not silently
     forgotten: sent = delivered + dropped must keep holding. *)
  Alcotest.(check int) "dropped counted" 1 (Net.messages_dropped net);
  Alcotest.(check int) "nothing delivered" 0 (Net.messages_delivered net);
  Alcotest.(check int) "conservation" (Net.messages_sent net)
    (Net.messages_delivered net + Net.messages_dropped net)

let test_net_partition_heal_accounting () =
  let e, net = mk_net () in
  let a = Net.add_node net ~region:(Latency.Az 0) in
  let b = Net.add_node net ~region:(Latency.Az 1) in
  let c = Net.add_node net ~region:(Latency.Az 2) in
  let got = ref 0 in
  Net.set_handler net b (fun ~src:_ _ -> incr got);
  Net.set_handler net c (fun ~src:_ _ -> incr got);
  Net.partition net [ a ] [ b; c ];
  (* Four sends across the cut, both directions: all dropped at send
     time. *)
  Net.send net ~src:a ~dst:b ();
  Net.send net ~src:a ~dst:c ();
  Net.send net ~src:b ~dst:a ();
  Net.send net ~src:c ~dst:a ();
  (* Same side of the cut still flows. *)
  Net.send net ~src:b ~dst:c ();
  Sim.Engine.run e;
  Alcotest.(check int) "partition drops both directions" 4 (Net.messages_dropped net);
  Alcotest.(check int) "same-side delivered" 1 !got;
  Net.heal_all net;
  Net.send net ~src:a ~dst:b ();
  Net.send net ~src:b ~dst:a ();
  Net.set_handler net a (fun ~src:_ _ -> incr got);
  Sim.Engine.run e;
  Alcotest.(check int) "flows after heal" 3 !got;
  Alcotest.(check int) "no new drops after heal" 4 (Net.messages_dropped net);
  Alcotest.(check int) "conservation" (Net.messages_sent net)
    (Net.messages_delivered net + Net.messages_dropped net)

let test_net_loss_rate_extremes () =
  (* Per-link loss 1.0 drops everything on that link and nothing else;
     global loss 0. never draws the RNG (event stream unchanged). *)
  let e, net = mk_net () in
  let a = Net.add_node net ~region:(Latency.Az 0) in
  let b = Net.add_node net ~region:(Latency.Az 1) in
  let got = ref 0 in
  Net.set_handler net b (fun ~src:_ _ -> incr got);
  Net.set_link_loss net ~src:a ~dst:b 1.0;
  for _ = 1 to 10 do
    Net.send net ~src:a ~dst:b ()
  done;
  Sim.Engine.run e;
  Alcotest.(check int) "all lost" 0 !got;
  Alcotest.(check int) "all counted" 10 (Net.messages_dropped net);
  Net.set_link_loss net ~src:a ~dst:b 0.;
  for _ = 1 to 10 do
    Net.send net ~src:a ~dst:b ()
  done;
  Sim.Engine.run e;
  Alcotest.(check int) "all delivered after clearing" 10 !got

let test_net_loss_rate_deterministic () =
  let run () =
    let e, net = mk_net () in
    let a = Net.add_node net ~region:(Latency.Az 0) in
    let b = Net.add_node net ~region:(Latency.Az 1) in
    let got = ref [] in
    Net.set_handler net b (fun ~src:_ m -> got := m :: !got);
    Net.set_loss_rate net 0.4;
    for i = 0 to 49 do
      Net.send net ~src:a ~dst:b i
    done;
    Sim.Engine.run e;
    (List.rev !got, Net.messages_dropped net)
  in
  let surv1, drop1 = run () in
  let surv2, drop2 = run () in
  Alcotest.(check (list int)) "same survivors" surv1 surv2;
  Alcotest.(check int) "same drop count" drop1 drop2;
  Alcotest.(check bool) "some lost" true (drop1 > 0);
  Alcotest.(check bool) "some survived" true (surv1 <> [])

let test_net_loss_rate_validation () =
  let _, net = mk_net () in
  Alcotest.check_raises "p = 1 rejected"
    (Invalid_argument "Net.set_loss_rate: need 0 <= p < 1") (fun () ->
      Net.set_loss_rate net 1.0)

let test_net_extra_delay_slows_and_keeps_fifo () =
  let e, net = mk_net () in
  let a = Net.add_node net ~region:(Latency.Az 0) in
  let b = Net.add_node net ~region:(Latency.Az 1) in
  let got = ref [] in
  let last_at = ref 0 in
  Net.set_handler net b (fun ~src:_ m ->
      got := m :: !got;
      last_at := Sim.Engine.now e);
  Net.set_extra_delay net ~max_us:20_000;
  for i = 0 to 19 do
    Net.send net ~src:a ~dst:b i
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "fifo preserved under extra delay"
    (List.init 20 (fun i -> i))
    (List.rev !got);
  (* Without the knob the last delivery lands at exactly 5_060 (REG
     one-way + base); with it, strictly later. *)
  Alcotest.(check bool) "deliveries actually delayed" true (!last_at > 5_060)

let test_net_clear_faults () =
  let e, net = mk_net () in
  let a = Net.add_node net ~region:(Latency.Az 0) in
  let b = Net.add_node net ~region:(Latency.Az 1) in
  let got = ref 0 in
  Net.set_handler net b (fun ~src:_ _ -> incr got);
  Net.set_loss_rate net 0.9;
  Net.set_link_loss net ~src:a ~dst:b 1.0;
  Net.set_extra_delay net ~max_us:50_000;
  Net.cut_link net ~src:b ~dst:a;
  Net.crash net a;
  Net.clear_faults net;
  (* Everything except the crash is gone... *)
  Net.send net ~src:b ~dst:a ();
  Sim.Engine.run e;
  Alcotest.(check int) "crash survives clear_faults" 1 (Net.messages_dropped net);
  (* ...and after an explicit recover the link is clean and prompt. *)
  Net.recover net a;
  Net.send net ~src:a ~dst:b ();
  Sim.Engine.run e;
  Alcotest.(check int) "delivered" 1 !got;
  Alcotest.(check int) "no extra delay left" 5_060 (Sim.Engine.now e)

let test_net_no_handler_drops () =
  let e, net = mk_net () in
  let a = Net.add_node net ~region:(Latency.Az 0) in
  let b = Net.add_node net ~region:(Latency.Az 1) in
  Net.send net ~src:a ~dst:b ();
  Sim.Engine.run e;
  Alcotest.(check int) "dropped" 1 (Net.messages_dropped net)

let test_net_wan_slower_than_lan () =
  let e = Sim.Engine.create () in
  let r = Sim.Rng.create 1 in
  let net = Net.create e r ~setup:Latency.Glo ~jitter_us:0 () in
  let a = Net.add_node net ~region:Latency.Us_west_1 in
  let b = Net.add_node net ~region:Latency.Eu_west_1 in
  let at = ref 0 in
  Net.set_handler net b (fun ~src:_ () -> at := Sim.Engine.now e);
  Net.send net ~src:a ~dst:b ();
  Sim.Engine.run e;
  Alcotest.(check int) "transatlantic one-way" 69_060 !at

let test_cpu_serialises_on_one_core () =
  let e = Sim.Engine.create () in
  let cpu = Cpu.create e ~cores:1 in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Cpu.submit cpu ~cost:100 (fun () -> done_at := Sim.Engine.now e :: !done_at)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "sequential" [ 100; 200; 300 ] (List.rev !done_at);
  Alcotest.(check int) "busy" 300 (Cpu.busy_us cpu);
  Alcotest.(check int) "completed" 3 (Cpu.completed cpu)

let test_cpu_parallel_cores () =
  let e = Sim.Engine.create () in
  let cpu = Cpu.create e ~cores:4 in
  let done_at = ref [] in
  for _ = 1 to 4 do
    Cpu.submit cpu ~cost:100 (fun () -> done_at := Sim.Engine.now e :: !done_at)
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "parallel" [ 100; 100; 100; 100 ] !done_at

let test_cpu_utilization () =
  let e = Sim.Engine.create () in
  let cpu = Cpu.create e ~cores:2 in
  Cpu.submit cpu ~cost:100 (fun () -> ());
  Sim.Engine.run e;
  Alcotest.(check (float 1e-9)) "half a core for 100us" 0.5
    (Cpu.utilization cpu ~duration:100)

let test_cpu_queue_length () =
  let e = Sim.Engine.create () in
  let cpu = Cpu.create e ~cores:1 in
  Cpu.submit cpu ~cost:50 (fun () -> ());
  Cpu.submit cpu ~cost:50 (fun () -> ());
  Cpu.submit cpu ~cost:50 (fun () -> ());
  Alcotest.(check int) "two queued" 2 (Cpu.queue_length cpu);
  Sim.Engine.run e;
  Alcotest.(check int) "drained" 0 (Cpu.queue_length cpu)

let test_cpu_reset_stats () =
  let e = Sim.Engine.create () in
  let cpu = Cpu.create e ~cores:1 in
  Cpu.submit cpu ~cost:10 (fun () -> ());
  Sim.Engine.run e;
  Cpu.reset_stats cpu;
  Alcotest.(check int) "busy reset" 0 (Cpu.busy_us cpu);
  Alcotest.(check int) "completed reset" 0 (Cpu.completed cpu)

let qcheck_net_fifo =
  QCheck.Test.make ~name:"per-pair FIFO under random jitter" ~count:50
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, n) ->
      let e = Sim.Engine.create () in
      let r = Sim.Rng.create seed in
      let net = Net.create e r ~setup:Latency.Con ~jitter_us:5_000 () in
      let a = Net.add_node net ~region:Latency.Us_east_1 in
      let b = Net.add_node net ~region:Latency.Us_west_1 in
      let got = ref [] in
      Net.set_handler net b (fun ~src:_ m -> got := m :: !got);
      for i = 0 to n - 1 do
        Net.send net ~src:a ~dst:b i
      done;
      Sim.Engine.run e;
      List.rev !got = List.init n (fun i -> i))

let qcheck_cpu_conserves_work =
  QCheck.Test.make ~name:"cpu busy time equals sum of costs" ~count:50
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(1 -- 30) (int_range 1 500)))
    (fun (cores, costs) ->
      let e = Sim.Engine.create () in
      let cpu = Cpu.create e ~cores in
      List.iter (fun c -> Cpu.submit cpu ~cost:c (fun () -> ())) costs;
      Sim.Engine.run e;
      Cpu.busy_us cpu = List.fold_left ( + ) 0 costs
      && Cpu.completed cpu = List.length costs)

(* Fault-free, observer-free fast path: one [send] plus its delivery
   allocates only the delivery closure (header, code pointer, closure
   info and 7 captured values).  The engine stores it in its slab and
   hands back an int handle; the heap holds one entry, so its share is
   zero.  The FIFO clocks, fault tables, observer events and delivery
   context must add nothing.  Measured in native code only: bytecode
   boxes more. *)
let test_net_send_allocation_budget () =
  if Sys.backend_type = Sys.Native then begin
    let e, net = mk_net ~jitter_us:20 () in
    let a = Net.add_node net ~region:(Latency.Az 0) in
    let b = Net.add_node net ~region:(Latency.Az 1) in
    let got = ref 0 in
    Net.set_handler net b (fun ~src:_ m -> got := !got + m);
    let round () =
      Net.send net ~src:a ~dst:b 1;
      ignore (Sim.Engine.step e)
    in
    for _ = 1 to 1000 do
      round ()
    done;
    let n = 100_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      round ()
    done;
    let w = (Gc.minor_words () -. w0) /. float_of_int n in
    Alcotest.(check int) "all delivered" (n + 1000) !got;
    let budget = 10. in
    Alcotest.(check bool)
      (Printf.sprintf "send + delivery: %.2f words/msg (budget %.0f)" w budget)
      true (w <= budget +. 0.01)
  end

(* One [Cpu.submit] plus its completion on a single busy core, so every
   job waits in the queue: the job record (header + 4 fields), its queue
   cell (header + 2) and the completion closure (header, code pointer,
   closure info, the recursive [start] and 3 captured values).  The
   engine adds nothing.  The
   submitted closure is made once, outside the loop.  Native code only. *)
let test_cpu_submit_allocation_budget () =
  if Sys.backend_type = Sys.Native then begin
    let e = Sim.Engine.create () in
    let cpu = Cpu.create e ~cores:1 in
    let rec job () = Cpu.submit cpu ~cost:10 job in
    job ();
    job ();
    for _ = 1 to 1000 do
      ignore (Sim.Engine.step e)
    done;
    let n = 100_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sim.Engine.step e)
    done;
    let w = (Gc.minor_words () -. w0) /. float_of_int n in
    let budget = 5. +. 3. +. 7. in
    Alcotest.(check bool)
      (Printf.sprintf "submit + completion: %.2f words/job (budget %.0f)" w budget)
      true (w <= budget +. 0.01)
  end

(* [current_delivery]: [None] outside a handler, the delivery's fields
   inside one -- also for a sender added after the receiver's FIFO array
   was sized. *)
let test_net_current_delivery () =
  let e, net = mk_net () in
  let a = Net.add_node net ~region:(Latency.Az 0) in
  let b = Net.add_node net ~region:(Latency.Az 1) in
  let seen = ref [] in
  Net.set_handler net b (fun ~src m ->
      seen := (src, m, Net.current_delivery net) :: !seen);
  Alcotest.(check bool) "none before any delivery" true
    (Net.current_delivery net = None);
  Net.set_send_path net ~transit_us:7 ~queue_us:8 ~service_us:9;
  Net.send net ~src:a ~dst:b "first";
  Net.clear_send_path net;
  Sim.Engine.run e;
  Alcotest.(check bool) "none after the handler" true
    (Net.current_delivery net = None);
  ignore (Sim.Engine.schedule e ~after:10 (fun () ->
      Alcotest.(check bool) "none in a timer" true
        (Net.current_delivery net = None)));
  Sim.Engine.run e;
  (* A node added after [b]'s FIFO array was sized, sending twice. *)
  let c = Net.add_node net ~region:(Latency.Az 0) in
  let t_send = Sim.Engine.now e in
  Net.send net ~src:c ~dst:b "late-1";
  Net.send net ~src:c ~dst:b "late-2";
  Sim.Engine.run e;
  match List.rev !seen with
  | [ (s1, "first", Some d1); (s2, "late-1", Some d2); (s3, "late-2", Some d3) ]
    ->
    Alcotest.(check int) "first src" a s1;
    Alcotest.(check int) "first sent at 0" 0 d1.Net.di_send_us;
    Alcotest.(check int) "first received at one-way + base" 5_060 d1.Net.di_recv_us;
    Alcotest.(check bool) "first path" true
      (d1.Net.di_path = { Net.p_transit_us = 7; p_queue_us = 8; p_service_us = 9 });
    Alcotest.(check int) "late src" c s2;
    Alcotest.(check int) "late src again" c s3;
    Alcotest.(check int) "late sent" t_send d2.Net.di_send_us;
    Alcotest.(check int) "late received" (t_send + 5_060) d2.Net.di_recv_us;
    Alcotest.(check bool) "late path cleared" true (d2.Net.di_path = Net.no_path);
    Alcotest.(check bool) "fifo on the late channel" true
      (d3.Net.di_recv_us >= d2.Net.di_recv_us)
  | l -> Alcotest.failf "unexpected deliveries (%d)" (List.length l)

let suites =
  [
    ( "simnet.latency",
      [
        Alcotest.test_case "table2 values" `Quick test_latency_table2_values;
        Alcotest.test_case "symmetry" `Quick test_latency_symmetry;
        Alcotest.test_case "REG 10ms" `Quick test_latency_reg_is_10ms;
        Alcotest.test_case "one-way every pair" `Quick test_one_way_every_pair;
        Alcotest.test_case "equal_region" `Quick test_equal_region;
      ] );
    ( "simnet.net",
      [
        Alcotest.test_case "delivers" `Quick test_net_delivers;
        Alcotest.test_case "fifo per pair" `Quick test_net_fifo_per_pair;
        Alcotest.test_case "crash drops" `Quick test_net_crash_drops;
        Alcotest.test_case "crash mid-flight" `Quick test_net_crash_mid_flight;
        Alcotest.test_case "no handler drops" `Quick test_net_no_handler_drops;
        Alcotest.test_case "wan slower than lan" `Quick test_net_wan_slower_than_lan;
        Alcotest.test_case "send allocation budget" `Quick
          test_net_send_allocation_budget;
        Alcotest.test_case "cpu submit allocation budget" `Quick
          test_cpu_submit_allocation_budget;
        Alcotest.test_case "current_delivery" `Quick test_net_current_delivery;
        QCheck_alcotest.to_alcotest qcheck_net_fifo;
      ] );
    ( "simnet.faults",
      [
        Alcotest.test_case "crash mid-flight counted" `Quick
          test_net_crash_mid_flight_counted;
        Alcotest.test_case "partition/heal accounting" `Quick
          test_net_partition_heal_accounting;
        Alcotest.test_case "loss-rate extremes" `Quick test_net_loss_rate_extremes;
        Alcotest.test_case "loss-rate deterministic" `Quick
          test_net_loss_rate_deterministic;
        Alcotest.test_case "loss-rate validation" `Quick test_net_loss_rate_validation;
        Alcotest.test_case "extra delay keeps fifo" `Quick
          test_net_extra_delay_slows_and_keeps_fifo;
        Alcotest.test_case "clear_faults" `Quick test_net_clear_faults;
      ] );
    ( "simnet.cpu",
      [
        Alcotest.test_case "serialises on one core" `Quick test_cpu_serialises_on_one_core;
        Alcotest.test_case "parallel cores" `Quick test_cpu_parallel_cores;
        Alcotest.test_case "utilization" `Quick test_cpu_utilization;
        Alcotest.test_case "queue length" `Quick test_cpu_queue_length;
        Alcotest.test_case "reset stats" `Quick test_cpu_reset_stats;
        QCheck_alcotest.to_alcotest qcheck_cpu_conserves_work;
      ] );
  ]
