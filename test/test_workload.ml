(* Tests for the workload generators: row codec, mixes, initial data,
   and full-mix integration runs checked against TPC-C consistency
   invariants and the serializability oracle. *)

module Outcome = Cc_types.Outcome
module Tpcc = Workload.Tpcc
module Retwis = Workload.Retwis
module Row = Workload.Row

(* ---- Row codec ---- *)

let test_row_roundtrip () =
  let row = [| "a"; "42"; ""; "x y z" |] in
  Alcotest.(check (array string)) "roundtrip" row (Row.decode (Row.encode row))

let test_row_absent () =
  Alcotest.(check bool) "absent" true (Row.is_absent "");
  Alcotest.(check int) "decode empty" 0 (Array.length (Row.decode ""))

let test_row_int_fields () =
  let row = [| "x"; "10" |] in
  let row = Row.add_int row 1 5 in
  Alcotest.(check int) "added" 15 (Row.get_int row 1);
  Alcotest.(check string) "other field untouched" "x" (Row.get row 0)

let test_row_get_out_of_range () =
  Alcotest.(check string) "oob" "" (Row.get [| "a" |] 3);
  Alcotest.(check int) "oob int" 0 (Row.get_int [| "a" |] 3)

(* ---- Mixes (Table 3a / 3b) ---- *)

let test_tpcc_mix_sums_to_100 () =
  Alcotest.(check int) "sum" 100 (List.fold_left (fun a (_, p) -> a + p) 0 Tpcc.mix)

let test_retwis_mix_sums_to_100 () =
  Alcotest.(check int) "sum" 100 (List.fold_left (fun a (_, p) -> a + p) 0 Retwis.mix)

let test_tpcc_mix_distribution () =
  let rng = Sim.Rng.create 3 in
  let counts = Hashtbl.create 8 in
  let n = 50_000 in
  for _ = 1 to n do
    let k = Tpcc.pick_kind rng in
    Hashtbl.replace counts k (1 + try Hashtbl.find counts k with Not_found -> 0)
  done;
  List.iter
    (fun (k, pct) ->
      let got = try Hashtbl.find counts k with Not_found -> 0 in
      let expected = n * pct / 100 in
      if abs (got - expected) > (expected / 5) + 50 then
        Alcotest.failf "%s: got %d expected ~%d" (Tpcc.kind_name k) got expected)
    Tpcc.mix

let test_retwis_mix_distribution () =
  let rng = Sim.Rng.create 4 in
  let counts = Hashtbl.create 8 in
  let n = 50_000 in
  for _ = 1 to n do
    let k = Retwis.pick_kind rng in
    Hashtbl.replace counts k (1 + try Hashtbl.find counts k with Not_found -> 0)
  done;
  List.iter
    (fun (k, pct) ->
      let got = try Hashtbl.find counts k with Not_found -> 0 in
      let expected = n * pct / 100 in
      if abs (got - expected) > (expected / 5) + 50 then
        Alcotest.failf "%s: got %d expected ~%d" (Retwis.kind_name k) got expected)
    Retwis.mix

(* ---- Initial data ---- *)

let small_conf =
  {
    Tpcc.n_warehouses = 2;
    districts_per_warehouse = 2;
    customers_per_district = 5;
    n_items = 20;
    initial_orders_per_district = 4;
    max_items_per_order = 6;
  }

let test_tpcc_initial_data_complete () =
  let data = Tpcc.initial_data small_conf in
  let find k = List.assoc_opt k data in
  Alcotest.(check bool) "warehouse 1" true (find "w:1" <> None);
  Alcotest.(check bool) "warehouse 2" true (find "w:2" <> None);
  Alcotest.(check bool) "district" true (find "d:2:2" <> None);
  Alcotest.(check bool) "customer" true (find "c:1:2:5" <> None);
  Alcotest.(check bool) "item" true (find "i:20" <> None);
  Alcotest.(check bool) "stock" true (find "s:2:20" <> None);
  Alcotest.(check bool) "initial order" true (find "o:1:1:1" <> None);
  Alcotest.(check bool) "delivery cursor" true (find "dlo:1:1" <> None);
  (* next_o_id reflects initial orders. *)
  match find "d:1:1" with
  | Some row -> Alcotest.(check int) "next_o_id" 5 (Row.get_int (Row.decode row) 1)
  | None -> Alcotest.fail "district missing"

let test_tpcc_partitioning () =
  let p = Tpcc.partition_of_key ~home_group:2 ~n_groups:4 in
  Alcotest.(check int) "warehouse key" 0 (p "w:1");
  Alcotest.(check int) "warehouse key 2" 1 (p "w:2");
  Alcotest.(check int) "district follows warehouse" 0 (p "d:1:5");
  Alcotest.(check int) "items go to home group" 2 (p "i:17");
  Alcotest.(check int) "stock follows warehouse" 2 (p "s:3:9")

let test_retwis_initial_data () =
  let conf = { Retwis.n_keys = 100; theta = 0.5 } in
  let data = Retwis.initial_data conf in
  Alcotest.(check int) "count" 100 (List.length data);
  Alcotest.(check bool) "key0" true (List.mem_assoc (Retwis.key 0) data)

(* ---- Full-mix integration on Morty, with consistency invariants ---- *)

type cluster = {
  engine : Sim.Engine.t;
  replicas : Morty.Replica.t array;
  history : Morty.Client.record list ref;
  rng : Sim.Rng.t;
  net : Morty.Msg.t Simnet.Net.t;
  cfg : Morty.Config.t;
}

let make_cluster ?(cfg = Morty.Config.default) () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 99 in
  let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:Simnet.Latency.Reg () in
  let replicas =
    Array.init 3 (fun i ->
        Morty.Replica.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng) ~index:i
          ~region:(Simnet.Latency.Az i) ~cores:4 ())
  in
  let peers = Array.map Morty.Replica.node replicas in
  Array.iter (fun r -> Morty.Replica.set_peers r peers) replicas;
  { engine; replicas; history = ref []; rng; net; cfg }

let run_mix c ~conf ~clients ~txns_per_client =
  Array.iter (fun r -> Morty.Replica.load r (Tpcc.initial_data conf)) c.replicas;
  let module M = Tpcc.Make (Morty.Client) in
  let peers = Array.map Morty.Replica.node c.replicas in
  List.iteri
    (fun i () ->
      let client =
        Morty.Client.create ~cfg:c.cfg ~engine:c.engine ~net:c.net
          ~rng:(Sim.Rng.split c.rng) ~region:(Simnet.Latency.Az (i mod 3))
          ~replicas:peers
          ~on_finish:(fun r -> c.history := r :: !(c.history))
          ()
      in
      let crng = Sim.Rng.split c.rng in
      let home_w = (i mod conf.Tpcc.n_warehouses) + 1 in
      let rec loop remaining attempt =
        if remaining > 0 then begin
          let kind = Tpcc.pick_kind crng in
          M.run conf client crng ~home_w kind (function
            | Outcome.Committed -> loop (remaining - 1) 0
            | Outcome.Aborted _ ->
              ignore
                (Sim.Engine.schedule c.engine
                   ~after:(1 + Sim.Rng.int crng (10_000 * (1 lsl min attempt 7)))
                   (fun () -> loop remaining (attempt + 1))))
        end
      in
      loop txns_per_client 0)
    (List.init clients (fun _ -> ()));
  Sim.Engine.run c.engine

let read_row c key =
  match Morty.Replica.read_current c.replicas.(0) key with
  | Some v -> Row.decode v
  | None -> [||]

(* TPC-C consistency condition 1 (adapted): a warehouse's YTD equals the
   sum of its districts' YTDs (payments update both in one txn). *)
let check_ytd_invariant c conf =
  for w = 1 to conf.Tpcc.n_warehouses do
    let w_ytd = Row.get_int (read_row c (Printf.sprintf "w:%d" w)) 1 in
    let d_sum = ref 0 in
    for d = 1 to conf.Tpcc.districts_per_warehouse do
      d_sum := !d_sum + Row.get_int (read_row c (Printf.sprintf "d:%d:%d" w d)) 0
    done;
    (* Remote payments update the home warehouse/district, so the sums
       stay aligned per warehouse. *)
    Alcotest.(check int) (Printf.sprintf "w%d ytd = sum of district ytd" w) !d_sum w_ytd
  done

(* Consistency condition 2: every order id below next_o_id exists with
   its order lines, and the delivery cursor never overtakes it. *)
let check_order_invariant c conf =
  for w = 1 to conf.Tpcc.n_warehouses do
    for d = 1 to conf.Tpcc.districts_per_warehouse do
      let next_o = Row.get_int (read_row c (Printf.sprintf "d:%d:%d" w d)) 1 in
      let dlo = Row.get_int (read_row c (Printf.sprintf "dlo:%d:%d" w d)) 0 in
      Alcotest.(check bool) "delivery cursor bounded" true (dlo <= next_o);
      for o = 1 to next_o - 1 do
        let orow = read_row c (Printf.sprintf "o:%d:%d:%d" w d o) in
        if Array.length orow = 0 then
          Alcotest.failf "order %d:%d:%d missing (next_o_id %d)" w d o next_o;
        let ol_cnt = Row.get_int orow 3 in
        for n = 1 to ol_cnt do
          if Array.length (read_row c (Printf.sprintf "ol:%d:%d:%d:%d" w d o n)) = 0
          then Alcotest.failf "order line %d:%d:%d:%d missing" w d o n
        done
      done
    done
  done

let check_serializable c =
  let h =
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
      Adya.History.empty !(c.history)
  in
  match Adya.Dsg.check h with
  | Ok () -> ()
  | Error v -> Alcotest.failf "not serializable: %a" Adya.Dsg.pp_violation v

let test_tpcc_full_mix_on_morty () =
  let c = make_cluster () in
  run_mix c ~conf:small_conf ~clients:6 ~txns_per_client:25;
  check_ytd_invariant c small_conf;
  check_order_invariant c small_conf;
  check_serializable c

let test_tpcc_full_mix_on_mvtso () =
  let c = make_cluster ~cfg:(Morty.Config.mvtso Morty.Config.default) () in
  run_mix c ~conf:small_conf ~clients:6 ~txns_per_client:15;
  check_ytd_invariant c small_conf;
  check_order_invariant c small_conf;
  check_serializable c

let test_retwis_full_mix_on_morty () =
  let c = make_cluster () in
  let conf = { Retwis.n_keys = 200; theta = 0.9 } in
  Array.iter (fun r -> Morty.Replica.load r (Retwis.initial_data conf)) c.replicas;
  let module R = Retwis.Make (Morty.Client) in
  let peers = Array.map Morty.Replica.node c.replicas in
  let zipf = Retwis.sampler conf in
  List.iteri
    (fun i () ->
      let client =
        Morty.Client.create ~cfg:c.cfg ~engine:c.engine ~net:c.net
          ~rng:(Sim.Rng.split c.rng) ~region:(Simnet.Latency.Az (i mod 3))
          ~replicas:peers
          ~on_finish:(fun r -> c.history := r :: !(c.history))
          ()
      in
      let crng = Sim.Rng.split c.rng in
      let rec loop remaining attempt =
        if remaining > 0 then begin
          let kind = Retwis.pick_kind crng in
          R.run client crng zipf kind (function
            | Outcome.Committed -> loop (remaining - 1) 0
            | Outcome.Aborted _ ->
              ignore
                (Sim.Engine.schedule c.engine
                   ~after:(1 + Sim.Rng.int crng (10_000 * (1 lsl min attempt 7)))
                   (fun () -> loop remaining (attempt + 1))))
        end
      in
      loop 20 0)
    (List.init 8 (fun _ -> ()));
  Sim.Engine.run c.engine;
  check_serializable c

(* The same TPC-C mix must also leave TAPIR in a consistent state. *)
let test_tpcc_full_mix_on_tapir () =
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create 77 in
  let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:Simnet.Latency.Reg () in
  let cfg = { Tapir.Config.default with n_groups = 2 } in
  let groups =
    Array.init 2 (fun g ->
        Array.init 3 (fun i ->
            Tapir.Replica.create ~cfg ~engine ~net ~group:g ~index:i
              ~region:(Simnet.Latency.Az i) ~cores:1 ()))
  in
  let data = Tpcc.initial_data small_conf in
  Array.iter (fun group -> Array.iter (fun r -> Tapir.Replica.load r data) group) groups;
  let module T = Tpcc.Make (Tapir.Client) in
  let group_nodes = Array.map (Array.map Tapir.Replica.node) groups in
  List.iteri
    (fun i () ->
      let home_w = (i mod small_conf.Tpcc.n_warehouses) + 1 in
      let partition =
        Tpcc.partition_of_key ~home_group:((home_w - 1) mod 2) ~n_groups:2
      in
      let client =
        Tapir.Client.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng)
          ~region:(Simnet.Latency.Az (i mod 3)) ~groups:group_nodes ~partition ()
      in
      let crng = Sim.Rng.split rng in
      let rec loop remaining attempt =
        if remaining > 0 then begin
          let kind = Tpcc.pick_kind crng in
          T.run small_conf client crng ~home_w kind (function
            | Outcome.Committed -> loop (remaining - 1) 0
            | Outcome.Aborted _ ->
              ignore
                (Sim.Engine.schedule engine
                   ~after:(1 + Sim.Rng.int crng (20_000 * (1 lsl min attempt 7)))
                   (fun () -> loop remaining (attempt + 1))))
        end
      in
      loop 10 0)
    (List.init 4 (fun _ -> ()));
  Sim.Engine.run engine;
  (* YTD invariant against group 0's first replica's view. *)
  let read_row key =
    let g = Tpcc.partition_of_key ~home_group:0 ~n_groups:2 key in
    match Tapir.Replica.read_current groups.(g).(0) key with
    | Some v -> Row.decode v
    | None -> [||]
  in
  for w = 1 to small_conf.Tpcc.n_warehouses do
    let w_ytd = Row.get_int (read_row (Printf.sprintf "w:%d" w)) 1 in
    let d_sum = ref 0 in
    for d = 1 to small_conf.Tpcc.districts_per_warehouse do
      d_sum := !d_sum + Row.get_int (read_row (Printf.sprintf "d:%d:%d" w d)) 0
    done;
    Alcotest.(check int) "tapir ytd invariant" !d_sum w_ytd
  done

(* ---- Key builders ---- *)

(* Every key builder against the [Printf] form it replaced, over small,
   boundary and extreme ids: keys name rows in every store, so one
   character of difference changes every run. *)
let test_key_builders_match_printf () =
  let ids = [ min_int; -10; -1; 0; 1; 9; 10; 99; 100; 4_096; 99_999; max_int ] in
  let check name expect got = Alcotest.(check string) name expect got in
  List.iter
    (fun i ->
      check "ycsb" (Printf.sprintf "y:%d" i) (Workload.Ycsb.key i);
      check "retwis" (Printf.sprintf "key:%d" i) (Retwis.key i);
      check "checking" (Printf.sprintf "chk:%d" i) (Workload.Smallbank.checking_key i);
      check "savings" (Printf.sprintf "sav:%d" i) (Workload.Smallbank.savings_key i);
      check "warehouse" (Printf.sprintf "w:%d" i) (Tpcc.k_warehouse i);
      check "item" (Printf.sprintf "i:%d" i) (Tpcc.k_item i);
      List.iter
        (fun j ->
          check "district" (Printf.sprintf "d:%d:%d" i j) (Tpcc.k_district i j);
          check "stock" (Printf.sprintf "s:%d:%d" i j) (Tpcc.k_stock i j);
          check "deliv_lo" (Printf.sprintf "dlo:%d:%d" i j) (Tpcc.k_deliv_lo i j);
          check "idx_last_name"
            (Printf.sprintf "idxlast:%d:%d:%s" i j "BARPRIESE")
            (Tpcc.k_idx_last_name i j "BARPRIESE");
          List.iter
            (fun k ->
              check "customer" (Printf.sprintf "c:%d:%d:%d" i j k) (Tpcc.k_customer i j k);
              check "order" (Printf.sprintf "o:%d:%d:%d" i j k) (Tpcc.k_order i j k);
              check "new_order" (Printf.sprintf "no:%d:%d:%d" i j k)
                (Tpcc.k_new_order i j k);
              check "idx_cust_order" (Printf.sprintf "idxco:%d:%d:%d" i j k)
                (Tpcc.k_idx_cust_order i j k);
              List.iter
                (fun l ->
                  check "order_line" (Printf.sprintf "ol:%d:%d:%d:%d" i j k l)
                    (Tpcc.k_order_line i j k l);
                  check "history" (Printf.sprintf "h:%d:%d:%d:%d" i j k l)
                    (Tpcc.k_history i j k l))
                ids)
            ids)
        ids)
    ids;
  (* Plus a dense range, as the workloads draw them. *)
  for i = 0 to 2_000 do
    check "ycsb dense" (Printf.sprintf "y:%d" i) (Workload.Ycsb.key i);
    check "order_line dense" (Printf.sprintf "ol:%d:%d:%d:%d" 1 (i mod 10) i (i mod 15))
      (Tpcc.k_order_line 1 (i mod 10) i (i mod 15))
  done

(* ---- One-pass codecs against the Stdlib forms they replaced ---- *)

module Dec = Workload.Dec

(* The split-based implementations, kept as oracles. *)
let split_decode s =
  if String.equal s "" then [||] else Array.of_list (String.split_on_char '|' s)

let split_get_int t i =
  let f = if i < Array.length t then t.(i) else "" in
  match int_of_string_opt f with Some n -> n | None -> 0

let split_tpcc_partition ~home_group ~n_groups key =
  match String.split_on_char ':' key with
  | "i" :: _ -> home_group
  | _ :: w :: _ -> (
    match int_of_string_opt w with Some w -> (w - 1) mod n_groups | None -> 0)
  | _ -> 0

let split_smallbank_partition ~n_groups key =
  match String.split_on_char ':' key with
  | [ _; c ] -> (match int_of_string_opt c with Some c -> c mod n_groups | None -> 0)
  | _ -> 0

let edge_ints = [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ]

let qcheck_dec_to_string =
  QCheck.Test.make ~name:"Dec writers equal string_of_int" ~count:2_000
    QCheck.(
      make ~print:Print.(list int)
        Gen.(
          list_size (return 4)
            (frequency
               [ (3, int); (2, small_signed_int); (1, oneofl edge_ints) ])))
    (fun ints ->
      let s = List.map string_of_int ints in
      List.for_all (fun n -> String.equal (Dec.to_string n) (string_of_int n)) ints
      &&
      match ints with
      | [ a; b; c; d ] ->
        String.equal (Dec.cat1 "p:" a) ("p:" ^ List.nth s 0)
        && String.equal (Dec.cat2 ':' "" a b) (String.concat ":" [ List.nth s 0; List.nth s 1 ])
        && String.equal (Dec.cat3 '-' "cust-" a b c)
             ("cust-" ^ String.concat "-" (List.filteri (fun i _ -> i < 3) s))
        && String.equal (Dec.cat4 '|' "" a b c d) (String.concat "|" s)
      | _ -> false)

let test_dec_edges () =
  List.iter
    (fun n -> Alcotest.(check string) (string_of_int n) (string_of_int n) (Dec.to_string n))
    edge_ints

(* Fields that [int_of_string_opt] treats specially: signs, bases,
   underscores, leading zeros, the 18/19-digit overflow edge. *)
let tricky_fields =
  [ ""; "0"; "7"; "-"; "+"; "+5"; "-7"; "--1"; "0x1f"; "0X1F"; "0b101"; "0o17"; "0u12";
    "1_000"; "_1"; "007"; " 1"; "1 "; "abc"; "BC"; "123456789012345678";
    "999999999999999999"; "1000000000000000000"; "4611686018427387903";
    "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
    "99999999999999999999999"; "0x7fffffffffffffff"; "0x8000000000000000" ]

let gen_field =
  QCheck.Gen.(
    frequency
      [ (3, oneofl tricky_fields);
        (2, string_size ~gen:numeral (0 -- 22));
        (1, string_size ~gen:(oneofl [ '0'; '1'; '-'; '+'; 'x'; '_'; 'a' ]) (0 -- 6)) ])

let gen_row = QCheck.Gen.(map (String.concat "|") (list_size (0 -- 6) gen_field))

let qcheck_field_int =
  QCheck.Test.make ~name:"Row.field_int equals get_int of decode" ~count:3_000
    QCheck.(make ~print:Print.(pair string int) Gen.(pair gen_row (0 -- 8)))
    (fun (s, i) -> Row.field_int s i = split_get_int (split_decode s) i)

let qcheck_row_codec =
  QCheck.Test.make ~name:"Row.encode/decode equal concat/split" ~count:2_000
    QCheck.(
      make ~print:Print.(pair (array string) string)
        Gen.(
          pair
            (array_size (0 -- 6) (string_size ~gen:(oneofl [ 'a'; '1'; ' ' ]) (0 -- 4)))
            (string_size ~gen:(oneofl [ 'a'; '|'; '1' ]) (0 -- 12))))
    (fun (fields, s) ->
      String.equal (Row.encode fields) (String.concat "|" (Array.to_list fields))
      && Row.decode s = split_decode s
      && Row.get_int (Row.decode s) 1 = split_get_int (split_decode s) 1)

(* Native code only: a key costs its own string and nothing more
   (3 words for up to 15 bytes), and reading a field in place or
   routing a key allocates nothing. *)
let test_codec_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let n = 1_000 and sink = ref 0 in
    let words f =
      let w0 = Gc.minor_words () in
      for i = 1 to n do
        sink := !sink + f (Sys.opaque_identity i)
      done;
      (Gc.minor_words () -. w0) /. float_of_int n
    in
    let row = "17|1|5|8750" in
    let check name budget f =
      let w = words f in
      if w > budget then Alcotest.failf "%s allocates %.1f words per call (budget %.0f)" name w budget
    in
    check "k_order_line" 3. (fun i -> String.length (Tpcc.k_order_line 1 (i mod 10) i 3));
    check "Dec.to_string" 2. (fun i -> String.length (Dec.to_string i));
    check "Row.field_int" 0. (fun i -> Row.field_int row (i land 3));
    check "tpcc partition" 0. (fun i ->
        Tpcc.partition_of_key ~home_group:0 ~n_groups:3 (if i land 1 = 0 then "s:2:99" else "i:7"));
    ignore !sink
  end

let gen_key =
  QCheck.Gen.(
    string_size
      ~gen:(oneofl [ 'i'; ':'; '0'; '1'; '2'; '9'; '-'; 'x'; '_'; 'w' ])
      (0 -- 10))

let partitions_agree key =
  List.for_all
    (fun n_groups ->
      List.for_all
        (fun home_group ->
          Tpcc.partition_of_key ~home_group ~n_groups key
          = split_tpcc_partition ~home_group ~n_groups key)
        [ 0; 1; n_groups - 1 ]
      && Workload.Smallbank.partition_of_key ~n_groups key
         = split_smallbank_partition ~n_groups key)
    [ 1; 2; 3; 5 ]

let qcheck_partition_of_key =
  QCheck.Test.make ~name:"partition_of_key equals the split version" ~count:3_000
    QCheck.(
      make ~print:Print.string
        Gen.(
          frequency
            [ (4, gen_key);
              (1, oneofl [ ""; "i"; "i:"; ":"; "::"; "i:x"; "x:i"; "w:"; "w:0";
                           "w:-1"; "chk:"; "chk:1:2"; "s:0x1f:3"; "s:1_0:2";
                           "d:99999999999999999999:1" ]) ]))
    partitions_agree

let test_partition_initial_keys () =
  let keys =
    List.map fst (Tpcc.initial_data small_conf)
    @ List.map fst
        (Workload.Smallbank.initial_data
           { Workload.Smallbank.default_conf with n_customers = 50 })
  in
  List.iter
    (fun k -> if not (partitions_agree k) then Alcotest.failf "partition of %S differs" k)
    keys

(* The per-transaction [Hashtbl] versions of the distinct-draw loops,
   kept as oracles: the same ids, in the same order, from the same RNG
   draws. *)
let table_pick_keys rng zipf n =
  let seen = Hashtbl.create 8 in
  let rec go acc remaining guard =
    if remaining = 0 || guard = 0 then acc
    else
      let i = Sim.Dist.zipf_sample zipf rng in
      if Hashtbl.mem seen i then go acc remaining (guard - 1)
      else begin
        Hashtbl.add seen i ();
        go (Retwis.key i :: acc) (remaining - 1) (guard - 1)
      end
  in
  go [] n (n * 100)

let table_distinct_items (conf : Tpcc.conf) rng n =
  let pick_item () =
    1 + (Sim.Dist.nurand rng ~a:8191 ~x:1 ~y:conf.n_items - 1) mod conf.n_items
  in
  let seen = Hashtbl.create 8 in
  let rec pick acc remaining =
    if remaining = 0 then acc
    else
      let i = pick_item () in
      if Hashtbl.mem seen i then pick acc remaining
      else begin
        Hashtbl.add seen i ();
        pick (i :: acc) (remaining - 1)
      end
  in
  pick [] (min n conf.n_items)

let test_distinct_draws_match_tables () =
  let same_rng a b = Sim.Rng.int a 1_000_000 = Sim.Rng.int b 1_000_000 in
  List.iter
    (fun n_keys ->
      let zipf = Sim.Dist.zipf ~n:n_keys ~theta:0.9 in
      for seed = 1 to 300 do
        let a = Sim.Rng.create seed and b = Sim.Rng.create seed in
        for n = 1 to 10 do
          let got = Retwis.pick_keys a zipf n and want = table_pick_keys b zipf n in
          Alcotest.(check (list string)) "retwis keys" want got
        done;
        Alcotest.(check bool) "retwis draws" true (same_rng a b)
      done)
    [ 3; 20; 1_000 ];
  List.iter
    (fun n_items ->
      let conf = { small_conf with Tpcc.n_items } in
      for seed = 1 to 300 do
        let a = Sim.Rng.create seed and b = Sim.Rng.create seed in
        for n = 1 to 15 do
          let got = Tpcc.distinct_items conf a n
          and want = table_distinct_items conf b n in
          Alcotest.(check (list int)) "tpcc items" want got
        done;
        Alcotest.(check bool) "tpcc draws" true (same_rng a b)
      done)
    [ 3; 10; 100 ]

(* ---- YCSB extension ---- *)

let test_ycsb_plan_mix () =
  (* read_pct = 100 must produce read-only plans that commit on all
     systems via begin_ro; read_pct = 0 all RMW. *)
  let c = make_cluster () in
  let conf = { Workload.Ycsb.default_conf with n_keys = 100; read_pct = 0 } in
  Array.iter (fun r -> Morty.Replica.load r (Workload.Ycsb.initial_data conf)) c.replicas;
  let module Y = Workload.Ycsb.Make (Morty.Client) in
  let peers = Array.map Morty.Replica.node c.replicas in
  let client =
    Morty.Client.create ~cfg:c.cfg ~engine:c.engine ~net:c.net
      ~rng:(Sim.Rng.split c.rng) ~region:(Simnet.Latency.Az 0) ~replicas:peers
      ~on_finish:(fun r -> c.history := r :: !(c.history)) ()
  in
  let crng = Sim.Rng.split c.rng in
  let zipf = Workload.Ycsb.sampler conf in
  let committed = ref 0 in
  let rec loop remaining =
    if remaining > 0 then
      Y.run conf client crng zipf (function
        | Outcome.Committed ->
          incr committed;
          loop (remaining - 1)
        | Outcome.Aborted _ ->
          ignore (Sim.Engine.schedule c.engine ~after:5_000 (fun () -> loop remaining)))
  in
  loop 20;
  Sim.Engine.run c.engine;
  Alcotest.(check int) "all committed" 20 !committed;
  (* All-RMW transactions increment counters: the sum of all values must
     equal committed transactions x ops. *)
  let total = ref 0 in
  for i = 0 to conf.n_keys - 1 do
    match Morty.Replica.read_current c.replicas.(0) (Workload.Ycsb.key i) with
    | Some v -> total := !total + int_of_string v
    | None -> ()
  done;
  Alcotest.(check int) "increments conserved" (20 * conf.ops_per_txn) !total;
  check_serializable c

let test_ycsb_standard_mixes () =
  Alcotest.(check int) "A" 50 Workload.Ycsb.workload_a.read_pct;
  Alcotest.(check int) "B" 95 Workload.Ycsb.workload_b.read_pct;
  Alcotest.(check int) "C" 100 Workload.Ycsb.workload_c.read_pct;
  Alcotest.(check int) "F" 0 Workload.Ycsb.workload_f.read_pct

let suites =
  [
    ( "workload.row",
      [
        Alcotest.test_case "roundtrip" `Quick test_row_roundtrip;
        Alcotest.test_case "absent" `Quick test_row_absent;
        Alcotest.test_case "int fields" `Quick test_row_int_fields;
        Alcotest.test_case "out of range" `Quick test_row_get_out_of_range;
      ] );
    ( "workload.mix",
      [
        Alcotest.test_case "tpcc mix sums" `Quick test_tpcc_mix_sums_to_100;
        Alcotest.test_case "retwis mix sums" `Quick test_retwis_mix_sums_to_100;
        Alcotest.test_case "tpcc mix distribution" `Slow test_tpcc_mix_distribution;
        Alcotest.test_case "retwis mix distribution" `Slow test_retwis_mix_distribution;
      ] );
    ( "workload.data",
      [
        Alcotest.test_case "tpcc initial data" `Quick test_tpcc_initial_data_complete;
        Alcotest.test_case "tpcc partitioning" `Quick test_tpcc_partitioning;
        Alcotest.test_case "retwis initial data" `Quick test_retwis_initial_data;
        Alcotest.test_case "key builders match printf" `Quick
          test_key_builders_match_printf;
        Alcotest.test_case "partition of initial keys" `Quick test_partition_initial_keys;
        Alcotest.test_case "distinct draws match tables" `Quick
          test_distinct_draws_match_tables;
      ] );
    ( "workload.codec",
      [
        Alcotest.test_case "dec edges" `Quick test_dec_edges;
        Alcotest.test_case "allocation" `Quick test_codec_allocation;
        QCheck_alcotest.to_alcotest qcheck_dec_to_string;
        QCheck_alcotest.to_alcotest qcheck_field_int;
        QCheck_alcotest.to_alcotest qcheck_row_codec;
        QCheck_alcotest.to_alcotest qcheck_partition_of_key;
      ] );
    ( "workload.ycsb",
      [
        Alcotest.test_case "all-RMW conserves increments" `Quick test_ycsb_plan_mix;
        Alcotest.test_case "standard mixes" `Quick test_ycsb_standard_mixes;
      ] );
    ( "workload.integration",
      [
        Alcotest.test_case "tpcc full mix on morty" `Slow test_tpcc_full_mix_on_morty;
        Alcotest.test_case "tpcc full mix on mvtso" `Slow test_tpcc_full_mix_on_mvtso;
        Alcotest.test_case "retwis full mix on morty" `Slow test_retwis_full_mix_on_morty;
        Alcotest.test_case "tpcc full mix on tapir" `Slow test_tpcc_full_mix_on_tapir;
      ] );
  ]
