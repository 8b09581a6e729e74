(* Tests for the Adya-model history checker: DSG construction, the
   serializability oracle, and window computations (paper §2, App. A/C). *)

module Version = Cc_types.Version

let v ts = Version.make ~ts ~id:0
let v' ts id = Version.make ~ts ~id

let txn ?(committed = true) ?(start_us = 0) ?(commit_us = 0) ver reads writes =
  { Adya.History.ver; reads; writes; committed; start_us; commit_us }

let check_ok h =
  match Adya.Dsg.check h with
  | Ok () -> ()
  | Error viol -> Alcotest.failf "unexpected violation: %a" Adya.Dsg.pp_violation viol

let check_cycle h =
  match Adya.Dsg.check h with
  | Error (Adya.Dsg.Cycle _) -> ()
  | Error v -> Alcotest.failf "expected cycle, got %a" Adya.Dsg.pp_violation v
  | Ok () -> Alcotest.fail "expected cycle, history accepted"

let test_empty_history () = check_ok Adya.History.empty

let test_serial_chain () =
  (* T1 writes x; T2 reads T1's x and overwrites it; T3 likewise. *)
  let h =
    Adya.History.of_list
      [
        txn (v 1) [] [ "x" ];
        txn (v 2) [ ("x", v 1) ] [ "x" ];
        txn (v 3) [ ("x", v 2) ] [ "x" ];
      ]
  in
  check_ok h

let test_lost_update_cycle () =
  (* Classic lost update: both T2 and T3 read T1's x and both overwrite.
     T2 -rw-> T3 (T2 read x1, T3 installs x3 after... ) and T3 reads x1
     while T2 installed x2 in between: T3 -rw-> ... produces a cycle. *)
  let h =
    Adya.History.of_list
      [
        txn (v 1) [] [ "x" ];
        txn (v 2) [ ("x", v 1) ] [ "x" ];
        txn (v 3) [ ("x", v 1) ] [ "x" ];
      ]
  in
  check_cycle h

let test_aborted_read_detected () =
  let h =
    Adya.History.of_list
      [
        txn ~committed:false (v 1) [] [ "x" ];
        txn (v 2) [ ("x", v 1) ] [ "y" ];
      ]
  in
  match Adya.Dsg.check h with
  | Error (Adya.Dsg.Aborted_read { reader; writer; key }) ->
    Alcotest.(check bool) "reader" true (Version.equal reader (v 2));
    Alcotest.(check bool) "writer" true (Version.equal writer (v 1));
    Alcotest.(check string) "key" "x" key
  | Error viol -> Alcotest.failf "wrong violation: %a" Adya.Dsg.pp_violation viol
  | Ok () -> Alcotest.fail "aborted read accepted"

let test_read_from_initial_version () =
  let h = Adya.History.of_list [ txn (v 1) [ ("x", Version.zero) ] [ "x" ] ] in
  check_ok h

let test_aborted_txns_do_not_constrain () =
  (* An aborted transaction reading stale data creates no violation. *)
  let h =
    Adya.History.of_list
      [
        txn (v 1) [] [ "x" ];
        txn (v 2) [ ("x", v 1) ] [ "x" ];
        txn ~committed:false (v 3) [ ("x", v 1) ] [ "x" ];
      ]
  in
  check_ok h

let test_write_skew_cycle () =
  (* T2 reads x0 writes y; T3 reads y0 writes x: rw edges both ways. *)
  let h =
    Adya.History.of_list
      [
        txn (v 1) [] [ "x"; "y" ];
        txn (v 2) [ ("x", v 1) ] [ "y" ];
        txn (v 3) [ ("y", v 1) ] [ "x" ];
      ]
  in
  (* T2 -rw-> T3 (x: T2 read x1, T3 installs next x) and
     T3 -rw-> T2 (y: T3 read y1, T2 installs next y): cycle. *)
  check_cycle h

let test_read_only_txns_ok () =
  let h =
    Adya.History.of_list
      [
        txn (v 1) [] [ "x" ];
        txn (v 2) [ ("x", v 1) ] [];
        txn (v 3) [ ("x", v 1) ] [ "x" ];
      ]
  in
  (* The read-only T2 reading x1 while T3 overwrites is fine:
     T1 -> T2, T2 -rw-> T3, T1 -> T3: acyclic. *)
  check_ok h

let test_stale_read_cycle_with_ww () =
  (* T3 reads the initial version of x although T2 (smaller version)
     installed x2: T3 -rw-> T2 ... wait, reading x0 with next installer
     T2 gives T3 -rw-> T2; and ww T2 -> T3? T3 doesn't write x. Use a
     different shape: T2 writes x, T3 reads x0 and writes x. Then
     version order x2 << x3, T3 read x0 whose next version is x2:
     T3 -rw-> T2 and ww T2 -> T3: cycle. *)
  let h =
    Adya.History.of_list
      [
        txn (v 2) [] [ "x" ];
        txn (v 3) [ ("x", Version.zero) ] [ "x" ];
      ]
  in
  check_cycle h

let test_version_order_follows_versions () =
  let h =
    Adya.History.of_list
      [
        txn (v' 5 1) [] [ "k" ];
        txn (v' 3 2) [] [ "k" ];
        txn ~committed:false (v' 4 0) [] [ "k" ];
      ]
  in
  let order = Adya.History.version_order h "k" in
  Alcotest.(check (list string)) "sorted committed installers"
    [ "v(3,2)"; "v(5,1)" ]
    (List.map Version.to_string order)

let test_duplicate_rejected () =
  let h = Adya.History.of_list [ txn (v 1) [] [] ] in
  match Adya.History.add h (txn (v 1) [] []) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

(* Windows. *)

let ev ver write_us commit_us read_from =
  { Adya.Windows.ver; write_us; commit_us; read_from }

let test_serialization_windows_chain () =
  (* Three RMW transactions back to back. *)
  let events =
    [
      ev (v 1) 10 15 (Some Version.zero);
      ev (v 2) 20 25 (Some (v 1));
      ev (v 3) 30 35 (Some (v 2));
    ]
  in
  let ws = Adya.Windows.serialization_windows events in
  let bounds = List.map (fun (w : Adya.Windows.window) -> (w.lo, w.hi)) ws in
  Alcotest.(check (list (pair int int)))
    "windows" [ (0, 10); (10, 20); (20, 30) ] bounds;
  Alcotest.(check (option reject)) "no overlap" None
    (Adya.Windows.overlapping ws)

let test_validity_windows_chain () =
  let events =
    [
      ev (v 1) 10 15 (Some Version.zero);
      ev (v 2) 20 25 (Some (v 1));
      ev (v 3) 30 35 (Some (v 2));
    ]
  in
  let ws = Adya.Windows.validity_windows events in
  let bounds = List.map (fun (w : Adya.Windows.window) -> (w.lo, w.hi)) ws in
  Alcotest.(check (list (pair int int)))
    "windows" [ (0, 15); (15, 25); (25, 35) ] bounds

let test_blind_write_window_is_point () =
  let ws = Adya.Windows.serialization_windows [ ev (v 1) 10 12 None ] in
  match ws with
  | [ w ] ->
    Alcotest.(check int) "lo" 10 w.lo;
    Alcotest.(check int) "hi" 10 w.hi
  | _ -> Alcotest.fail "expected one window"

let test_overlap_detection () =
  let ws =
    [
      { Adya.Windows.ver = v 1; lo = 0; hi = 20 };
      { Adya.Windows.ver = v 2; lo = 10; hi = 30 };
    ]
  in
  Alcotest.(check bool) "detected" true (Adya.Windows.overlapping ws <> None)

let test_mean_length () =
  let ws =
    [
      { Adya.Windows.ver = v 1; lo = 0; hi = 10 };
      { Adya.Windows.ver = v 2; lo = 10; hi = 30 };
    ]
  in
  Alcotest.(check (float 1e-9)) "mean" 15. (Adya.Windows.mean_length_us ws)

(* Property: a history generated as a true serial execution always
   passes the oracle. *)
let qcheck_serial_histories_accepted =
  QCheck.Test.make ~name:"serial executions are serializable" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (pair (int_bound 4) (int_bound 4)))
    (fun ops ->
      (* Sequentially apply RMW transactions over 5 keys; each reads the
         current version of its key and installs a new one. *)
      let latest = Array.make 5 Version.zero in
      let _, txns =
        List.fold_left
          (fun (i, acc) (k1, k2) ->
            let ver = Version.make ~ts:i ~id:0 in
            let reads = [ (string_of_int k1, latest.(k1)) ] in
            let writes =
              if k1 = k2 then [ string_of_int k1 ]
              else [ string_of_int k1; string_of_int k2 ]
            in
            latest.(k1) <- ver;
            latest.(k2) <- ver;
            ( i + 1,
              txn ver reads writes :: acc ))
          (1, []) ops
      in
      Adya.Dsg.is_serializable (Adya.History.of_list txns))

(* Property: reading a version that was not the latest at the reader's
   position, while also writing that key, always creates a cycle. *)
let qcheck_stale_rmw_rejected =
  QCheck.Test.make ~name:"stale RMW creates a cycle" ~count:100
    QCheck.(int_range 2 20)
    (fun n ->
      let txns =
        List.init n (fun i ->
            let ver = Version.make ~ts:(i + 1) ~id:0 in
            (* Everyone reads the initial version but writes x. *)
            txn ver [ ("x", Version.zero) ] [ "x" ])
      in
      not (Adya.Dsg.is_serializable (Adya.History.of_list txns)))

(* ---- Reference oracle ---- *)

(* [Dsg.edges] as it was before the per-key index: one
   [History.version_order] scan per written key and per committed read.
   Quadratic, but plainly right; [Dsg.edges] must return exactly this
   list, order included, since the order fixes the DFS and so the cycle
   a violation reports. *)
let naive_edges h =
  let committed = Adya.History.committed h in
  let keys = Hashtbl.create 64 in
  List.iter
    (fun (txn : Adya.History.txn) ->
      List.iter (fun k -> Hashtbl.replace keys k ()) txn.writes)
    committed;
  let keys_written = Hashtbl.fold (fun k () acc -> k :: acc) keys [] in
  let acc = ref [] in
  let emit src dst kind key =
    if not (Version.equal src dst) then
      acc := { Adya.Dsg.src; dst; kind; key } :: !acc
  in
  List.iter
    (fun key ->
      let rec consecutive = function
        | a :: (b :: _ as rest) ->
          emit a b Adya.Dsg.Ww key;
          consecutive rest
        | [ _ ] | [] -> ()
      in
      consecutive (Adya.History.version_order h key))
    keys_written;
  List.iter
    (fun (txn : Adya.History.txn) ->
      List.iter
        (fun (key, writer) ->
          if not (Version.is_zero writer) then emit writer txn.ver Adya.Dsg.Wr key;
          let order = Adya.History.version_order h key in
          let next =
            let rec find = function
              | a :: b :: rest ->
                if Version.equal a writer then Some b else find (b :: rest)
              | [ _ ] | [] -> None
            in
            if Version.is_zero writer then
              match order with v :: _ -> Some v | [] -> None
            else find order
          in
          match next with
          | Some nxt -> emit txn.ver nxt Adya.Dsg.Rw key
          | None -> ())
        txn.reads)
    committed;
  !acc

type verdict = V_ok | V_g1a | V_cycle

(* The verdict [Dsg.check] must reach, computed independently of its
   DFS: G1a if a committed read names a non-committed writer, otherwise
   a cycle iff Kahn's algorithm cannot drain [naive_edges]. *)
let naive_verdict h =
  let committed = Adya.History.committed h in
  let g1a =
    List.exists
      (fun (txn : Adya.History.txn) ->
        List.exists
          (fun (_, w) ->
            (not (Version.is_zero w))
            &&
            match Adya.History.find h w with
            | Some t -> not t.committed
            | None -> true)
          txn.reads)
      committed
  in
  if g1a then V_g1a
  else
    let es = naive_edges h in
    let indeg = Hashtbl.create 64 in
    List.iter (fun (t : Adya.History.txn) -> Hashtbl.replace indeg t.ver 0) committed;
    List.iter
      (fun (e : Adya.Dsg.edge) ->
        Hashtbl.replace indeg e.dst (Hashtbl.find indeg e.dst + 1))
      es;
    let ready =
      Queue.of_seq
        (Seq.filter_map
           (fun (v, d) -> if d = 0 then Some v else None)
           (Hashtbl.to_seq indeg))
    in
    let drained = ref 0 in
    while not (Queue.is_empty ready) do
      let v = Queue.pop ready in
      incr drained;
      List.iter
        (fun (e : Adya.Dsg.edge) ->
          if Version.equal e.src v then begin
            let d = Hashtbl.find indeg e.dst - 1 in
            Hashtbl.replace indeg e.dst d;
            if d = 0 then Queue.push e.dst ready
          end)
        es
    done;
    if !drained = List.length committed then V_ok else V_cycle

let pp_kind ppf k =
  Fmt.string ppf (match k with Adya.Dsg.Wr -> "wr" | Ww -> "ww" | Rw -> "rw")

let edge_t =
  Alcotest.testable
    (fun ppf (e : Adya.Dsg.edge) ->
      Fmt.pf ppf "%a-%a(%s)->%a" Version.pp e.src pp_kind e.kind e.key Version.pp
        e.dst)
    ( = )

(* Coverage the random histories below must reach, so the property is
   not satisfied vacuously. *)
type coverage = {
  mutable dup_writes : int;
  mutable zero_reads : int;
  mutable aborted_writer_reads : int;
  mutable absent_writer_reads : int;
  mutable mixed_outcomes : int;
  mutable ok : int;
  mutable g1a : int;
  mutable cycle : int;
}

(* 1-8 keys, up to 40 transactions.  Half the histories are "clean":
   committed reads name only [Version.zero] or committed writers, so the
   verdict turns on the graph rather than on G1a. *)
let random_history cov seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let nkeys = 1 + int 8 in
  let key () = "k" ^ string_of_int (int nkeys) in
  let clean = Random.State.bool rng in
  let pick = function [] -> None | l -> Some (List.nth l (int (List.length l))) in
  let txns = ref [] in
  for i = 0 to int 41 - 1 do
    let committed = int 4 > 0 in
    let writes = List.init (int 4) (fun _ -> key ()) in
    if List.length (List.sort_uniq String.compare writes) < List.length writes then
      cov.dup_writes <- cov.dup_writes + 1;
    let candidates k =
      List.filter
        (fun (t : Adya.History.txn) ->
          (t.committed || not clean) && (k = "" || List.mem k t.writes))
        !txns
    in
    let reads =
      List.init (int 4) (fun _ ->
          let k = key () in
          let writer =
            match int 10 with
            | 0 | 1 | 2 -> Version.zero
            | 3 when not clean -> Version.make ~ts:(100 + int 10) ~id:(-1)
            | 4 -> (
              (* Any earlier transaction, not necessarily an installer of
                 [k]: a read with no successor in [k]'s order. *)
              match pick (candidates "") with
              | Some t -> t.ver
              | None -> Version.zero)
            | _ -> (
              match pick (candidates k) with
              | Some t -> t.ver
              | None -> Version.zero)
          in
          (k, writer))
    in
    let ver = Version.make ~ts:(int 50) ~id:i in
    txns :=
      txn ~committed ~commit_us:(if committed then 0 else -1) ver reads writes
      :: !txns
  done;
  let txns = !txns in
  let h = Adya.History.of_list txns in
  List.iter
    (fun (t : Adya.History.txn) ->
      List.iter
        (fun (_, w) ->
          if Version.is_zero w then cov.zero_reads <- cov.zero_reads + 1
          else
            match Adya.History.find h w with
            | None -> cov.absent_writer_reads <- cov.absent_writer_reads + 1
            | Some w when not w.committed ->
              cov.aborted_writer_reads <- cov.aborted_writer_reads + 1
            | Some _ -> ())
        t.reads)
    txns;
  if
    List.exists (fun (t : Adya.History.txn) -> t.committed) txns
    && List.exists (fun (t : Adya.History.txn) -> not t.committed) txns
  then cov.mixed_outcomes <- cov.mixed_outcomes + 1;
  h

let test_edges_match_reference () =
  let cov =
    {
      dup_writes = 0;
      zero_reads = 0;
      aborted_writer_reads = 0;
      absent_writer_reads = 0;
      mixed_outcomes = 0;
      ok = 0;
      g1a = 0;
      cycle = 0;
    }
  in
  for seed = 1 to 2_500 do
    let h = random_history cov seed in
    let name what = Printf.sprintf "seed %d: %s" seed what in
    Alcotest.(check (list edge_t)) (name "edges") (naive_edges h) (Adya.Dsg.edges h);
    match (naive_verdict h, Adya.Dsg.check h) with
    | V_ok, Ok () -> cov.ok <- cov.ok + 1
    | V_g1a, Error (Adya.Dsg.Aborted_read _) -> cov.g1a <- cov.g1a + 1
    | V_cycle, Error (Adya.Dsg.Cycle c) ->
      cov.cycle <- cov.cycle + 1;
      (* The reported cycle is closed and made of genuine edges. *)
      let es = naive_edges h in
      List.iter
        (fun e -> Alcotest.(check bool) (name "cycle edge in DSG") true (List.mem e es))
        c;
      let srcs = List.map (fun (e : Adya.Dsg.edge) -> e.src) c in
      let dsts = List.map (fun (e : Adya.Dsg.edge) -> e.dst) c in
      (match srcs with
      | first :: rest ->
        Alcotest.(check bool) (name "cycle closed") true
          (List.equal Version.equal (rest @ [ first ]) dsts)
      | [] -> Alcotest.fail (name "empty cycle"))
    | _, verdict ->
      Alcotest.failf "%s: verdict %s disagrees with the reference" (name "check")
        (match verdict with
        | Ok () -> "Ok"
        | Error v -> Fmt.str "%a" Adya.Dsg.pp_violation v)
  done;
  List.iter
    (fun (what, n) -> Alcotest.(check bool) ("covered: " ^ what) true (n > 0))
    [
      ("duplicate keys in writes", cov.dup_writes);
      ("reads of Version.zero", cov.zero_reads);
      ("reads of aborted writers", cov.aborted_writer_reads);
      ("reads of absent versions", cov.absent_writer_reads);
      ("committed and aborted mixed", cov.mixed_outcomes);
      ("Ok verdicts", cov.ok);
      ("G1a verdicts", cov.g1a);
      ("cycle verdicts", cov.cycle);
    ]

(* A serial history of 20 000 read-modify-write transactions over 1 000
   keys passes; one write-skew pair appended to it is caught.  No time
   is asserted, but a per-read scan of the history (quadratic) would make
   this test take minutes. *)
let test_large_history () =
  let rng = Random.State.make [| 20_000 |] in
  let nkeys = 1_000 in
  let key i = "k" ^ string_of_int i in
  let latest = Array.make nkeys Version.zero in
  let txns = ref [] in
  for i = 1 to 20_000 do
    let ver = v i in
    let k1 = Random.State.int rng nkeys and k2 = Random.State.int rng nkeys in
    txns := txn ver [ (key k1, latest.(k1)); (key k2, latest.(k2)) ] [ key k1 ] :: !txns;
    latest.(k1) <- ver
  done;
  check_ok (Adya.History.of_list !txns);
  (* T_a reads k0 and writes k1, T_b reads k1 and writes k0, both from the
     latest versions: T_a -rw-> T_b -rw-> T_a. *)
  let skew =
    [
      txn (v 20_001) [ (key 0, latest.(0)) ] [ key 1 ];
      txn (v 20_002) [ (key 1, latest.(1)) ] [ key 0 ];
    ]
  in
  check_cycle (Adya.History.of_list (skew @ !txns))

(* ---- Analysis ---- *)

let test_analysis_report () =
  let h =
    Adya.History.of_list
      [
        txn ~start_us:0 ~commit_us:10 (v 1) [ ("x", Version.zero) ] [ "x" ];
        txn ~start_us:5 ~commit_us:25 (v 2) [ ("x", v 1) ] [ "x" ];
        txn ~start_us:8 ~commit_us:40 (v 3) [ ("x", v 2) ] [ "x"; "y" ];
      ]
  in
  let r = Adya.Analysis.validity_report h ~key:"x" in
  Alcotest.(check int) "writers" 3 r.writers;
  Alcotest.(check bool) "no overlap" false r.overlap;
  (* Windows: [0,10], [10,25], [25,40] -> mean 13.33. *)
  Alcotest.(check (float 0.1)) "mean" 13.33 r.mean_validity_us;
  Alcotest.(check int) "max" 15 r.max_validity_us

let test_analysis_hottest () =
  let h =
    Adya.History.of_list
      [
        txn (v 1) [] [ "x" ];
        txn (v 2) [] [ "x"; "y" ];
        txn (v 3) [] [ "x" ];
      ]
  in
  match Adya.Analysis.hottest_keys h ~limit:2 with
  | [ ("x", 3); ("y", 1) ] -> ()
  | other ->
    Alcotest.failf "unexpected: %s"
      (String.concat ";" (List.map (fun (k, c) -> Printf.sprintf "%s=%d" k c) other))

let suites =
  [
    ( "adya.dsg",
      [
        Alcotest.test_case "empty history" `Quick test_empty_history;
        Alcotest.test_case "serial chain" `Quick test_serial_chain;
        Alcotest.test_case "lost update cycle" `Quick test_lost_update_cycle;
        Alcotest.test_case "aborted read" `Quick test_aborted_read_detected;
        Alcotest.test_case "read from initial version" `Quick test_read_from_initial_version;
        Alcotest.test_case "aborted txns unconstrained" `Quick test_aborted_txns_do_not_constrain;
        Alcotest.test_case "write skew cycle" `Quick test_write_skew_cycle;
        Alcotest.test_case "read-only ok" `Quick test_read_only_txns_ok;
        Alcotest.test_case "stale read + ww cycle" `Quick test_stale_read_cycle_with_ww;
        Alcotest.test_case "version order" `Quick test_version_order_follows_versions;
        Alcotest.test_case "duplicate rejected" `Quick test_duplicate_rejected;
        Alcotest.test_case "edges match reference" `Quick test_edges_match_reference;
        Alcotest.test_case "large history" `Quick test_large_history;
        QCheck_alcotest.to_alcotest qcheck_serial_histories_accepted;
        QCheck_alcotest.to_alcotest qcheck_stale_rmw_rejected;
      ] );
    ( "adya.windows",
      [
        Alcotest.test_case "serialization windows chain" `Quick test_serialization_windows_chain;
        Alcotest.test_case "validity windows chain" `Quick test_validity_windows_chain;
        Alcotest.test_case "blind write point window" `Quick test_blind_write_window_is_point;
        Alcotest.test_case "overlap detection" `Quick test_overlap_detection;
        Alcotest.test_case "mean length" `Quick test_mean_length;
      ] );
    ( "adya.analysis",
      [
        Alcotest.test_case "validity report" `Quick test_analysis_report;
        Alcotest.test_case "hottest keys" `Quick test_analysis_hottest;
      ] );
  ]
