(* Run ledger: the rendering is deterministic with one line per
   (system, metric), and the exact gate fails on any difference —
   naming the first changed value by system, metric and seed. *)

let mk_entry ?(point = "p") sys det =
  { Obs.Ledger.en_system = sys; en_point = point; en_det = det }

let mk_ledger ?(config = "test config v1") ?(seeds = [ 42; 43; 44; 45; 46 ])
    entries =
  Obs.Ledger.make ~config ~seeds entries

let ledger ?config ?seeds ?(goodput = [| 100.; 163.5; 98.; 101.; 99. |])
    ?(extra = []) () =
  mk_ledger ?config ?seeds
    [
      mk_entry "morty"
        ([ ("committed", [| 41.; 49.; 50.; 42.; 28. |]); ("goodput", goodput) ]
        @ extra);
      mk_entry "mvtso"
        [ ("committed", [| 30.; 31.; 29.; 30.; 32. |]);
          ("goodput", [| 50.; 51.; 49.; 0.1; 1. /. 3. |]) ];
    ]

let contains sub s =
  let n = String.length sub in
  let rec has i = i + n <= String.length s && (String.sub s i n = sub || has (i + 1)) in
  has 0

let mismatch ~committed l =
  match Obs.Ledger.first_mismatch ~committed l with
  | Some m -> m
  | None -> Alcotest.fail "expected a mismatch"

let test_render () =
  let l = ledger () in
  let s = Obs.Ledger.render l in
  Alcotest.(check string) "deterministic" s (Obs.Ledger.render (ledger ()));
  let count sub =
    List.length (List.filter (contains sub) (String.split_on_char '\n' s))
  in
  Alcotest.(check int) "one line per (system, metric)" 4 (count "\"metric\":");
  Alcotest.(check int) "morty goodput on one line" 1
    (count "\"system\":\"morty\",\"point\":\"p\",\"metric\":\"goodput\"");
  Alcotest.(check int) "raw config in the header" 1
    (count "\"config\": \"test config v1\"");
  Alcotest.(check int) "seed set in the header" 1
    (count "\"seeds\": [42,43,44,45,46]")

let test_exact_floats () =
  (* Equal bytes must mean equal values: every value prints at full
     precision and reads back bit-for-bit. *)
  let vals = [| 0.1; 1. /. 3.; 1e-12; 123456789.123456789; 6.02e23; 41. |] in
  let s = Obs.Ledger.render (mk_ledger [ mk_entry "s" [ ("m", vals) ] ]) in
  let prefix = "{\"system\":\"s\",\"point\":\"p\",\"metric\":\"m\",\"values\":[" in
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' s)
  with
  | None -> Alcotest.fail "no metric line"
  | Some line ->
    let p = String.length prefix in
    let body = String.sub line p (String.index_from line p ']' - p) in
    let got = List.map float_of_string (String.split_on_char ',' body) in
    List.iteri
      (fun i v ->
        Alcotest.(check bool)
          (Printf.sprintf "float %d exact" i)
          true
          (Int64.bits_of_float v = Int64.bits_of_float (List.nth got i)))
      (Array.to_list vals)

let test_identical_pass () =
  let committed = Obs.Ledger.render (ledger ()) in
  Alcotest.(check bool) "no mismatch" true
    (Obs.Ledger.first_mismatch ~committed (ledger ()) = None)

let test_injected_regression_fires () =
  (* The committed ledger records morty goodput 150 at seed 43; the
     fresh run gives 163.5. *)
  let committed =
    Obs.Ledger.render (ledger ~goodput:[| 100.; 150.; 98.; 101.; 99. |] ())
  in
  let m = mismatch ~committed (ledger ()) in
  Alcotest.(check string) "system" "morty" m.Obs.Ledger.system;
  Alcotest.(check string) "metric" "goodput" m.Obs.Ledger.metric;
  Alcotest.(check (option int)) "seed" (Some 43) m.Obs.Ledger.seed;
  Alcotest.(check string) "committed value" "150" m.Obs.Ledger.committed;
  Alcotest.(check string) "fresh value" "163.5" m.Obs.Ledger.fresh;
  Alcotest.(check int) "line" 5 m.Obs.Ledger.line;
  let msg = Format.asprintf "%a" Obs.Ledger.pp_mismatch m in
  Alcotest.(check bool) "message names all three" true
    (String.starts_with
       ~prefix:"line 5: system morty, point p, metric goodput, seed 43" msg)

let test_missing_and_new_metrics () =
  let extra = [ ("p99_ms", [| 3.; 4.; 5.; 6.; 7. |]) ] in
  let added = mismatch ~committed:(Obs.Ledger.render (ledger ())) (ledger ~extra ()) in
  Alcotest.(check string) "added metric named" "p99_ms" added.Obs.Ledger.metric;
  let removed =
    mismatch ~committed:(Obs.Ledger.render (ledger ~extra ())) (ledger ())
  in
  Alcotest.(check bool) "removed metric's line shown" true
    (contains "\"metric\":\"p99_ms\"" removed.Obs.Ledger.committed);
  Alcotest.(check (option int)) "no seed for a whole line" None
    removed.Obs.Ledger.seed;
  (* The last metric line loses its trailing comma when one is appended
     after it; the gate reports the new line, not the comma. *)
  let appended =
    mk_ledger
      [ mk_entry "morty" [ ("committed", [| 1. |]) ];
        mk_entry "tapir" [ ("committed", [| 2. |]) ] ]
  in
  let m =
    mismatch
      ~committed:
        (Obs.Ledger.render (mk_ledger [ mk_entry "morty" [ ("committed", [| 1. |]) ] ]))
      appended
  in
  Alcotest.(check string) "appended system" "tapir" m.Obs.Ledger.system

let test_other_seed_set_fails () =
  let committed = Obs.Ledger.render (ledger ~seeds:[ 1; 2; 3; 4; 5 ] ()) in
  let m = mismatch ~committed (ledger ()) in
  Alcotest.(check string) "seeds" "seeds" m.Obs.Ledger.metric;
  Alcotest.(check int) "line" 2 m.Obs.Ledger.line

let test_config_mismatch () =
  let committed = Obs.Ledger.render (ledger ~config:"test config v0" ()) in
  let m = mismatch ~committed (ledger ()) in
  Alcotest.(check string) "config" "config" m.Obs.Ledger.metric;
  Alcotest.(check int) "line" 1 m.Obs.Ledger.line

let suites =
  [
    ( "ledger",
      [
        Alcotest.test_case "render deterministic, one line per metric" `Quick
          test_render;
        Alcotest.test_case "exact float rendering" `Quick test_exact_floats;
        Alcotest.test_case "identical ledgers pass" `Quick test_identical_pass;
        Alcotest.test_case "injected regression fires" `Quick
          test_injected_regression_fires;
        Alcotest.test_case "missing and new metrics" `Quick
          test_missing_and_new_metrics;
        Alcotest.test_case "other seed set fails" `Quick
          test_other_seed_set_fails;
        Alcotest.test_case "config mismatch" `Quick test_config_mismatch;
      ] );
  ]
