(* Unit and property tests for the shared CC vocabulary: version total
   ordering, read/write-set helpers, and the remaining distribution
   helpers. *)

module Version = Cc_types.Version
module Rwset = Cc_types.Rwset

let test_version_ordering () =
  let a = Version.make ~ts:1 ~id:5 in
  let b = Version.make ~ts:1 ~id:6 in
  let c = Version.make ~ts:2 ~id:0 in
  Alcotest.(check bool) "ts dominates" true Version.(a < c);
  Alcotest.(check bool) "id breaks ties" true Version.(a < b);
  Alcotest.(check bool) "zero below everything" true Version.(Version.zero < a);
  Alcotest.(check bool) "equal" true (Version.equal a (Version.make ~ts:1 ~id:5));
  Alcotest.(check bool) "zero is zero" true (Version.is_zero Version.zero);
  Alcotest.(check bool) "nonzero" false (Version.is_zero a)

let test_version_pp () =
  Alcotest.(check string) "zero" "v0" (Version.to_string Version.zero);
  Alcotest.(check string) "normal" "v(3,7)"
    (Version.to_string (Version.make ~ts:3 ~id:7))

(* [Version.hash] hashes the record itself; it must equal the hash of
   the [(ts, id)] pair it replaced, so [Adya.Dsg]'s [Key_ver] buckets
   (and every iteration order over them) stay as they were.  In native
   code it must also allocate nothing. *)
let test_version_hash () =
  let r = Sim.Rng.create 23 in
  let edges = [ min_int; -1; 0; 1; max_int ] in
  let vers =
    Version.zero
    :: List.concat_map (fun ts -> List.map (fun id -> Version.make ~ts ~id) edges) edges
    @ List.init 1000 (fun _ ->
          Version.make ~ts:(Int64.to_int (Sim.Rng.int64 r))
            ~id:(Int64.to_int (Sim.Rng.int64 r)))
  in
  List.iter
    (fun (v : Version.t) ->
      Alcotest.(check int) (Version.to_string v)
        (Hashtbl.hash (v.ts, v.id)) (Version.hash v))
    vers;
  if Sys.backend_type = Sys.Native then begin
    let v = Version.make ~ts:12345 ~id:6 and sink = ref 0 in
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      sink := !sink + Version.hash (Sys.opaque_identity v)
    done;
    let w = Gc.minor_words () -. w0 in
    Alcotest.(check bool) (Printf.sprintf "hash allocates %.0f words" w) true (w = 0.)
  end

let qcheck_version_total_order =
  let ver = QCheck.(pair small_int small_int) in
  QCheck.Test.make ~name:"version compare is a total order" ~count:500
    QCheck.(triple ver ver ver)
    (fun ((t1, i1), (t2, i2), (t3, i3)) ->
      let a = Version.make ~ts:t1 ~id:i1 in
      let b = Version.make ~ts:t2 ~id:i2 in
      let c = Version.make ~ts:t3 ~id:i3 in
      let sgn x = compare x 0 in
      (* Antisymmetry and transitivity. *)
      sgn (Version.compare a b) = -sgn (Version.compare b a)
      && (not (Version.compare a b <= 0 && Version.compare b c <= 0)
          || Version.compare a c <= 0))

let test_dedup_writes_last_wins () =
  let w k v = { Rwset.key = k; w_val = v } in
  let ws = [ w "a" "1"; w "b" "2"; w "a" "3"; w "c" "4"; w "b" "5" ] in
  let deduped = Rwset.dedup_writes ws in
  Alcotest.(check int) "three keys" 3 (List.length deduped);
  Alcotest.(check (list string)) "first-write order kept" [ "a"; "b"; "c" ]
    (List.map (fun (x : Rwset.write) -> x.key) deduped);
  Alcotest.(check (option string)) "last value of a" (Some "3")
    (Option.map (fun (x : Rwset.write) -> x.w_val) (Rwset.write_of_key deduped "a"));
  Alcotest.(check (option string)) "last value of b" (Some "5")
    (Option.map (fun (x : Rwset.write) -> x.w_val) (Rwset.write_of_key deduped "b"))

let qcheck_dedup_writes_invariants =
  let writes =
    QCheck.(list_of_size Gen.(1 -- 30) (pair (int_bound 5) small_nat))
  in
  QCheck.Test.make ~name:"dedup_writes: unique keys, final values" ~count:300
    writes
    (fun pairs ->
      let ws =
        List.map
          (fun (k, v) ->
            { Rwset.key = string_of_int k; w_val = string_of_int v })
          pairs
      in
      let deduped = Rwset.dedup_writes ws in
      let keys = List.map (fun (x : Rwset.write) -> x.key) deduped in
      let unique = List.sort_uniq compare keys in
      List.length keys = List.length unique
      && List.for_all
           (fun (x : Rwset.write) ->
             (* The value is the LAST one written for that key. *)
             match Rwset.write_of_key ws x.key with
             | Some last -> String.equal last.w_val x.w_val
             | None -> false)
           deduped)

(* The two-table [dedup_writes] that the list scan replaced, kept as the
   oracle: later writes shadow earlier ones, first positions are kept. *)
let dedup_writes_two_tables (ws : Rwset.write_set) =
  let seen = Hashtbl.create 8 in
  List.iter (fun (w : Rwset.write) -> Hashtbl.replace seen w.key w.w_val) ws;
  let emitted = Hashtbl.create 8 in
  List.filter_map
    (fun (w : Rwset.write) ->
      if Hashtbl.mem emitted w.key then None
      else begin
        Hashtbl.add emitted w.key ();
        Some { w with w_val = Hashtbl.find seen w.key }
      end)
    ws

let qcheck_dedup_writes_matches_two_tables =
  let writes =
    QCheck.(list_of_size Gen.(0 -- 40) (pair (int_bound 12) small_nat))
  in
  QCheck.Test.make ~name:"dedup_writes equals the two-table version" ~count:1000
    writes
    (fun pairs ->
      let ws =
        List.map
          (fun (k, v) -> { Rwset.key = "k" ^ string_of_int k; w_val = string_of_int v })
          pairs
      in
      Rwset.dedup_writes ws = dedup_writes_two_tables ws)

let test_read_of_key () =
  let r k v = { Rwset.key = k; r_ver = Version.zero; r_val = v } in
  let rs = [ r "a" "1"; r "b" "2" ] in
  Alcotest.(check (option string)) "found" (Some "2")
    (Option.map (fun (x : Rwset.read) -> x.r_val) (Rwset.read_of_key rs "b"));
  Alcotest.(check bool) "missing" true (Rwset.read_of_key rs "z" = None)

let test_exponential_mean () =
  let rng = Sim.Rng.create 33 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Sim.Dist.exponential rng ~mean:10.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean close to 10" true (abs_float (mean -. 10.) < 0.5)

let test_uniform_int_bounds () =
  let rng = Sim.Rng.create 34 in
  for _ = 1 to 10_000 do
    let v = Sim.Dist.uniform_int rng ~lo:5 ~hi:9 in
    if v < 5 || v > 9 then Alcotest.fail "out of range"
  done

let test_nurand_range () =
  let rng = Sim.Rng.create 35 in
  for _ = 1 to 10_000 do
    let v = Sim.Dist.nurand rng ~a:1023 ~x:1 ~y:3000 in
    if v < 1 || v > 3000 then Alcotest.failf "nurand out of range: %d" v
  done

let test_outcome () =
  Alcotest.(check bool) "committed" true
    (Cc_types.Outcome.is_committed Cc_types.Outcome.Committed);
  Alcotest.(check bool) "aborted" false
    (Cc_types.Outcome.is_committed
       (Cc_types.Outcome.Aborted Obs.Abort_reason.User_abort))

let suites =
  [
    ( "cc_types",
      [
        Alcotest.test_case "version ordering" `Quick test_version_ordering;
        Alcotest.test_case "version pp" `Quick test_version_pp;
        Alcotest.test_case "version hash" `Quick test_version_hash;
        QCheck_alcotest.to_alcotest qcheck_version_total_order;
        Alcotest.test_case "dedup last wins" `Quick test_dedup_writes_last_wins;
        QCheck_alcotest.to_alcotest qcheck_dedup_writes_invariants;
        QCheck_alcotest.to_alcotest qcheck_dedup_writes_matches_two_tables;
        Alcotest.test_case "read_of_key" `Quick test_read_of_key;
        Alcotest.test_case "outcome" `Quick test_outcome;
      ] );
    ( "sim.dist.more",
      [
        Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
        Alcotest.test_case "uniform_int bounds" `Quick test_uniform_int_bounds;
        Alcotest.test_case "nurand range" `Quick test_nurand_range;
      ] );
  ]
