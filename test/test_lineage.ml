(* Causal lineage: recorder round-trip, cross-validation of the
   provenance DAG against the Adya DSG on seeded runs of all four
   systems, cascade-root structure under QCheck, Chrome-trace flow-arrow
   pairing, and the morty_inspect explainer contract on seeded TPC-C. *)

let ycsb_exp ?(theta = 0.9) ?(n_keys = 60) ?(measure_us = 120_000) system seed
    label =
  {
    Harness.Run.default_exp with
    Harness.Run.e_system = system;
    e_workload =
      Harness.Run.Ycsb
        { Workload.Ycsb.n_keys; theta; ops_per_txn = 4; read_pct = 50 };
    e_clients = 8;
    e_cores = 2;
    e_warmup_us = 20_000;
    e_measure_us = measure_us;
    e_seed = seed;
    e_label = label;
  }

let tpcc_exp seed label =
  {
    Harness.Run.default_exp with
    Harness.Run.e_system = Harness.Run.Morty;
    e_workload =
      Harness.Run.Tpcc
        {
          Workload.Tpcc.n_warehouses = 2;
          districts_per_warehouse = 2;
          customers_per_district = 5;
          n_items = 20;
          initial_orders_per_district = 3;
          max_items_per_order = 6;
        };
    e_clients = 8;
    e_cores = 2;
    e_warmup_us = 20_000;
    e_measure_us = 150_000;
    e_seed = seed;
    e_label = label;
  }

(* --- recorder / JSONL round-trip ----------------------------------------- *)

let test_roundtrip () =
  let t = Obs.Lineage.create ~label:"rt" () in
  Obs.Lineage.next_txn_label t "payment";
  Obs.Lineage.note_begin t ~ver:(5, 1) ~ts:10;
  Obs.Lineage.note_read t ~ver:(5, 1) ~key:"k" ~from:(3, 2) ~eid:0 ~ts:12;
  Obs.Lineage.note_reexec t ~ver:(5, 1) ~eid:1 ~trigger:Obs.Lineage.Missed_read
    ~key:"k" ~aggressor:(4, 7) ~ts:20;
  Obs.Lineage.note_conflict t ~ver:(5, 1) ~key:"k2" ~aggressor:(9, 9)
    ~reason:"wound" ~ts:30;
  Obs.Lineage.note_finish t ~ver:(5, 1) ~committed:false ~reason:"missed-write"
    ~work_us:123 ~ts:40;
  Obs.Lineage.note_begin t ~ver:(6, 2) ~ts:15;
  Obs.Lineage.note_finish t ~ver:(6, 2) ~committed:true ~reason:"" ~work_us:7
    ~ts:25;
  let recs = Obs.Lineage.records t in
  let back = Obs.Lineage.parse_jsonl (Obs.Lineage.to_jsonl t) in
  Alcotest.(check int) "txn count survives" 2 (List.length back);
  Alcotest.(check bool) "records round-trip exactly" true (recs = back)

let test_null_disabled () =
  let t = Obs.Lineage.null () in
  Obs.Lineage.note_begin t ~ver:(1, 1) ~ts:0;
  Obs.Lineage.note_finish t ~ver:(1, 1) ~committed:true ~reason:"" ~work_us:0
    ~ts:1;
  Alcotest.(check bool) "null recorder disabled" false (Obs.Lineage.enabled t);
  Alcotest.(check int) "null recorder records nothing" 0 (Obs.Lineage.n_txns t)

(* --- cross-validation against the Adya DSG -------------------------------- *)

(* The lineage DAG's read edges must project into DSG(H): for every
   committed transaction, the last read it recorded per key — its final
   read set — whose writer is a committed transaction must appear as a
   Wr dependency in the Adya graph built from the same run's history.
   When the reader's lineage version is itself a history version (Morty,
   MVTSO, TAPIR) the full (src, dst, key) triple must match; otherwise
   (Spanner keys lineage by begin version while the history uses commit
   versions) the (src, key) projection must. *)
let wr_containment system () =
  let lineage = Obs.Lineage.create () in
  (* Spanner's wound-wait aborts nearly everything at theta 0.9 on 60
     keys — the lone survivor only reads pre-loaded data, leaving nothing
     to cross-validate.  Dial the zipf exponent down and run longer for
     that leg so committed transactions observe committed writers. *)
  let exp_ =
    match system with
    | Harness.Run.Spanner ->
      ycsb_exp ~theta:0.6 ~measure_us:200_000 system 17
        (Harness.Run.system_name system ^ "-wr")
    | _ -> ycsb_exp system 17 (Harness.Run.system_name system ^ "-wr")
  in
  let _r, txns =
    Harness.Run.run_exp_audited ~obs:(Obs.Bus.create ~lineage_log:lineage ()) exp_
  in
  let h = Adya.History.of_list txns in
  let pair (v : Cc_types.Version.t) = (v.Cc_types.Version.ts, v.Cc_types.Version.id) in
  let committed_vers =
    List.filter_map
      (fun (t : Adya.History.txn) ->
        if t.Adya.History.committed then Some (pair t.Adya.History.ver) else None)
      txns
  in
  let committed v = List.mem v committed_vers in
  let wr =
    List.filter_map
      (fun (e : Adya.Dsg.edge) ->
        match e.Adya.Dsg.kind with
        | Adya.Dsg.Wr -> Some (pair e.Adya.Dsg.src, pair e.Adya.Dsg.dst, e.Adya.Dsg.key)
        | _ -> None)
      (Adya.Dsg.edges h)
  in
  let checked = ref 0 in
  List.iter
    (fun (r : Obs.Lineage.record) ->
      if r.Obs.Lineage.r_committed then begin
        let last = Hashtbl.create 16 in
        List.iter
          (function
            | Obs.Lineage.Read { e_key; e_from; _ } ->
              Hashtbl.replace last e_key e_from
            | _ -> ())
          r.Obs.Lineage.r_events;
        Hashtbl.iter
          (fun key from ->
            if
              from <> Obs.Lineage.v0
              && from <> r.Obs.Lineage.r_ver
              && committed from
            then begin
              incr checked;
              let contained =
                if committed r.Obs.Lineage.r_ver then
                  List.mem (from, r.Obs.Lineage.r_ver, key) wr
                else List.exists (fun (s, _, k) -> s = from && k = key) wr
              in
              if not contained then
                Alcotest.failf "%s: lineage read %s of %s by %s not in DSG"
                  (Harness.Run.system_name system)
                  (Format.asprintf "%a" Obs.Lineage.pp_ver from)
                  key
                  (Format.asprintf "%a" Obs.Lineage.pp_ver r.Obs.Lineage.r_ver)
            end)
          last
      end)
    (Obs.Lineage.records lineage);
  Alcotest.(check bool)
    (Harness.Run.system_name system ^ ": contention produced checkable reads")
    true (!checked > 0)

(* --- cascade structure (QCheck over seeds) -------------------------------- *)

(* A cascade root is an aggressor that is nobody's victim: if it had
   re-executed, the re-execution's own aggressor would give it an
   incoming blame edge.  Roots therefore never carry Reexec events. *)
let qcheck_cascade_roots =
  QCheck.Test.make ~name:"lineage: cascade roots are never re-executions"
    ~count:5
    (QCheck.make QCheck.Gen.(1 -- 50))
    (fun seed ->
      let lineage = Obs.Lineage.create () in
      ignore
        (Harness.Run.run_exp
           ~obs:(Obs.Bus.create ~lineage_log:lineage ())
           (ycsb_exp Harness.Run.Morty seed "cascade-roots"));
      let recs = Obs.Lineage.records lineage in
      let blame =
        List.filter
          (fun e -> e.Obs.Lineage.e_kind <> Obs.Lineage.E_read)
          (Obs.Lineage.edges recs)
      in
      let victims = List.map (fun e -> e.Obs.Lineage.e_dst) blame in
      let roots =
        List.filter_map
          (fun e ->
            if List.mem e.Obs.Lineage.e_src victims then None
            else Some e.Obs.Lineage.e_src)
          blame
      in
      List.for_all
        (fun v ->
          match
            List.find_opt (fun r -> r.Obs.Lineage.r_ver = v) recs
          with
          | None -> true
          | Some r ->
            not
              (List.exists
                 (function Obs.Lineage.Reexec _ -> true | _ -> false)
                 r.Obs.Lineage.r_events))
        roots)

(* The lineage layer is a pure observer: attaching a recorder must not
   change the history, so the measured result is byte-comparable. *)
let test_zero_perturbation () =
  let plain = Harness.Run.run_exp (ycsb_exp Harness.Run.Morty 17 "perturb") in
  let lineage = Obs.Lineage.create () in
  let traced =
    Harness.Run.run_exp
      ~obs:(Obs.Bus.create ~lineage_log:lineage ())
      (ycsb_exp Harness.Run.Morty 17 "perturb")
  in
  Alcotest.(check int) "committed identical" plain.Harness.Stats.r_committed
    traced.Harness.Stats.r_committed;
  Alcotest.(check int) "aborted identical" plain.Harness.Stats.r_aborted
    traced.Harness.Stats.r_aborted;
  Alcotest.(check (float 1e-9)) "goodput identical"
    plain.Harness.Stats.r_goodput traced.Harness.Stats.r_goodput;
  Alcotest.(check bool) "summary landed in result" true
    (traced.Harness.Stats.r_lineage.Obs.Lineage.s_txns > 0)

(* --- Chrome-trace flow arrows --------------------------------------------- *)

(* Every re-execution emits a flow start on the abandoned execution and
   a flow finish on its replacement, sharing one id: collect both sides
   from the trace JSON and demand a bijection. *)
let flow_ids json marker =
  let ids = ref [] in
  let mlen = String.length marker in
  let n = String.length json in
  let rec go i =
    if i + mlen > n then List.rev !ids
    else if String.sub json i mlen = marker then begin
      let j = ref (i + mlen) in
      let start = !j in
      while !j < n && json.[!j] >= '0' && json.[!j] <= '9' do incr j done;
      ids := int_of_string (String.sub json start (!j - start)) :: !ids;
      go !j
    end
    else go (i + 1)
  in
  go 0

let test_flow_pairing () =
  let sink = Obs.Sink.create ~seed:17 in
  let obs =
    Obs.Bus.create ~sink ~lineage_log:(Obs.Lineage.create ()) ()
  in
  let r = Harness.Run.run_exp ~obs (ycsb_exp Harness.Run.Morty 17 "flow") in
  Alcotest.(check bool) "run re-executed" true
    (r.Harness.Stats.r_reexecs_per_txn > 0.);
  let json = Obs.Trace.to_json sink in
  let starts = flow_ids json "\"ph\":\"s\",\"id\":" in
  let finishes = flow_ids json "\"ph\":\"f\",\"bp\":\"e\",\"id\":" in
  Alcotest.(check bool) "flow arrows present" true (starts <> []);
  Alcotest.(check (list int))
    "every flow start has exactly one finish with the same id"
    (List.sort compare starts) (List.sort compare finishes)

(* --- the explainer contract on seeded TPC-C -------------------------------- *)

let test_tpcc_explain_names_aggressors () =
  let lineage = Obs.Lineage.create ~label:"tpcc" () in
  ignore
    (Harness.Run.run_exp
       ~obs:(Obs.Bus.create ~lineage_log:lineage ())
       (tpcc_exp 11 "tpcc-explain"));
  let recs = Obs.Lineage.records lineage in
  let reexecs = ref 0 in
  List.iter
    (fun (r : Obs.Lineage.record) ->
      List.iter
        (function
          | Obs.Lineage.Reexec { e_key; e_aggressor; _ } ->
            incr reexecs;
            Alcotest.(check bool) "re-execution names its key" true (e_key <> "");
            Alcotest.(check bool) "re-execution names its aggressor" true
              (e_aggressor <> Obs.Lineage.v0);
            (* The explainer renders both on the reexec line. *)
            let text = Obs.Lineage.explain recs r.Obs.Lineage.r_ver in
            let contains hay needle =
              let nh = String.length hay and nn = String.length needle in
              let rec go i =
                i + nn <= nh
                && (String.sub hay i nn = needle || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool) "explain names the key" true
              (contains text e_key);
            Alcotest.(check bool) "explain names the aggressor" true
              (contains text
                 (Format.asprintf "aggressor %a" Obs.Lineage.pp_ver e_aggressor))
          | _ -> ())
        r.Obs.Lineage.r_events)
    recs;
  Alcotest.(check bool) "seeded TPC-C re-executed" true (!reexecs > 0);
  (* Workload labels rode along from the pick hook. *)
  Alcotest.(check bool) "workload labels recorded" true
    (List.exists
       (fun r ->
         r.Obs.Lineage.r_label = "new-order" || r.Obs.Lineage.r_label = "payment")
       recs)

let suites =
  [
    ( "lineage",
      [
        Alcotest.test_case "recorder JSONL round-trip" `Quick test_roundtrip;
        Alcotest.test_case "null recorder is inert" `Quick test_null_disabled;
        Alcotest.test_case "wr-projection in Adya DSG (morty)" `Quick
          (wr_containment Harness.Run.Morty);
        Alcotest.test_case "wr-projection in Adya DSG (mvtso)" `Quick
          (wr_containment Harness.Run.Mvtso);
        Alcotest.test_case "wr-projection in Adya DSG (tapir)" `Quick
          (wr_containment Harness.Run.Tapir);
        Alcotest.test_case "wr-projection in Adya DSG (spanner)" `Quick
          (wr_containment Harness.Run.Spanner);
        QCheck_alcotest.to_alcotest qcheck_cascade_roots;
        Alcotest.test_case "recorder never perturbs the run" `Quick
          test_zero_perturbation;
        Alcotest.test_case "re-execution flow arrows pair up" `Quick
          test_flow_pairing;
        Alcotest.test_case "explain names aggressor and key on TPC-C" `Quick
          test_tpcc_explain_names_aggressors;
      ] );
  ]
