(* Tests for the deterministic simulation substrate: RNG, distributions,
   heap, event engine, skewed clocks. *)

open Sim

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" false (Rng.int64 a = Rng.int64 b)

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of range"
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 3.5 in
    if v < 0. || v >= 3.5 then Alcotest.fail "out of range"
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  (* After splitting, drawing from b must not change a's future stream. *)
  let a' = Rng.create 5 in
  let _ = Rng.split a' in
  ignore (Rng.int64 b);
  Alcotest.(check int64) "parent unaffected" (Rng.int64 a') (Rng.int64 a)

let test_rng_uniformity () =
  let r = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 10 then
        Alcotest.failf "bucket count %d too far from %d" c expected)
    buckets

let test_shuffle_permutation () =
  let r = Rng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_zipf_uniform_when_theta_zero () =
  let z = Dist.zipf ~n:100 ~theta:0. in
  let p0 = Dist.zipf_pmf z 0 and p99 = Dist.zipf_pmf z 99 in
  Alcotest.(check (float 1e-9)) "uniform pmf" p0 p99

let test_zipf_skew () =
  let z = Dist.zipf ~n:1000 ~theta:0.9 in
  let p0 = Dist.zipf_pmf z 0 and p999 = Dist.zipf_pmf z 999 in
  Alcotest.(check bool) "hot key much hotter" true (p0 > 100. *. p999)

let test_zipf_sample_range () =
  let z = Dist.zipf ~n:50 ~theta:0.9 in
  let r = Rng.create 13 in
  for _ = 1 to 10_000 do
    let i = Dist.zipf_sample z r in
    if i < 0 || i >= 50 then Alcotest.fail "sample out of range"
  done

let test_zipf_sample_matches_pmf () =
  let z = Dist.zipf ~n:10 ~theta:0.9 in
  let r = Rng.create 17 in
  let counts = Array.make 10 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let i = Dist.zipf_sample z r in
    counts.(i) <- counts.(i) + 1
  done;
  for i = 0 to 9 do
    let expected = Dist.zipf_pmf z i *. float_of_int n in
    let got = float_of_int counts.(i) in
    if abs_float (got -. expected) > 0.05 *. expected +. 30. then
      Alcotest.failf "item %d: got %f expected %f" i got expected
  done

let test_zipf_invalid_args () =
  Alcotest.check_raises "n=0" (Invalid_argument "Dist.zipf: n must be positive")
    (fun () -> ignore (Dist.zipf ~n:0 ~theta:0.9));
  Alcotest.check_raises "theta<0"
    (Invalid_argument "Dist.zipf: theta must be non-negative") (fun () ->
      ignore (Dist.zipf ~n:10 ~theta:(-1.)))

let test_heap_orders_by_time () =
  let h = Heap.create () in
  Heap.push h ~time:30 ~seq:0 "c";
  Heap.push h ~time:10 ~seq:1 "a";
  Heap.push h ~time:20 ~seq:2 "b";
  let pop () = match Heap.pop h with Some (_, _, v) -> v | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ]

let test_heap_fifo_within_same_time () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:5 ~seq:i i
  done;
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, _, v) ->
      out := v :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !out)

let test_heap_random_stress () =
  let h = Heap.create () in
  let r = Rng.create 99 in
  let n = 5_000 in
  for i = 0 to n - 1 do
    Heap.push h ~time:(Rng.int r 1000) ~seq:i ()
  done;
  Alcotest.(check int) "length" n (Heap.length h);
  let prev = ref min_int in
  for _ = 1 to n do
    match Heap.pop h with
    | Some (t, _, ()) ->
      if t < !prev then Alcotest.fail "heap order violated";
      prev := t
    | None -> Alcotest.fail "heap drained early"
  done;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_engine_runs_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~after:20 (fun () -> log := "b" :: !log));
  ignore (Engine.schedule e ~after:10 (fun () -> log := "a" :: !log));
  ignore (Engine.schedule e ~after:30 (fun () -> log := "c" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock" 30 (Engine.now e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let hits = ref 0 in
  ignore
    (Engine.schedule e ~after:5 (fun () ->
         incr hits;
         ignore (Engine.schedule e ~after:5 (fun () -> incr hits))));
  Engine.run e;
  Alcotest.(check int) "both fired" 2 !hits;
  Alcotest.(check int) "clock" 10 (Engine.now e)

let test_engine_cancel () =
  let e = Engine.create () in
  let hit = ref false in
  let tm = Engine.schedule e ~after:5 (fun () -> hit := true) in
  Engine.cancel e tm;
  Engine.run e;
  Alcotest.(check bool) "not fired" false !hit

let test_engine_pending_counts_cancelled () =
  let e = Engine.create () in
  let t1 = Engine.schedule e ~after:5 (fun () -> ()) in
  let _t2 = Engine.schedule e ~after:10 (fun () -> ()) in
  Alcotest.(check int) "two queued" 2 (Engine.pending e);
  Alcotest.(check int) "two raw" 2 (Engine.raw_pending e);
  Engine.cancel e t1;
  (* [pending] reports live events: the cancelled one drops out
     immediately even though its slot stays queued as a ghost until
     drained — [raw_pending] still sees it. *)
  Alcotest.(check int) "one live after cancel" 1 (Engine.pending e);
  Alcotest.(check int) "ghost still queued" 2 (Engine.raw_pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e);
  Alcotest.(check int) "raw drained" 0 (Engine.raw_pending e)

let test_engine_cancel_idempotent () =
  let e = Engine.create () in
  let hit = ref 0 in
  let t = Engine.schedule e ~after:5 (fun () -> incr hit) in
  Engine.cancel e t;
  Engine.cancel e t;
  Engine.run e;
  Alcotest.(check int) "double-cancel still cancelled" 0 !hit

let test_engine_cancel_after_fire () =
  let e = Engine.create () in
  let hit = ref 0 in
  let t = Engine.schedule e ~after:5 (fun () -> incr hit) in
  Engine.run e;
  Alcotest.(check int) "fired" 1 !hit;
  (* Cancelling a fired timer must be a harmless no-op... *)
  Engine.cancel e t;
  (* ...and must not disturb later events. *)
  ignore (Engine.schedule e ~after:5 (fun () -> incr hit));
  Engine.run e;
  Alcotest.(check int) "later event unaffected" 2 !hit

(* A handle names one event, not a slot: once [t1] has fired, [t2]
   reuses its heap slot (the only one freed), and cancelling the stale
   [t1] must leave [t2] live. *)
let test_engine_cancel_stale_handle () =
  let e = Engine.create () in
  let log = ref [] in
  let t1 = Engine.schedule e ~after:5 (fun () -> log := 1 :: !log) in
  Engine.run e;
  let _t2 = Engine.schedule e ~after:5 (fun () -> log := 2 :: !log) in
  Engine.cancel e t1;
  Alcotest.(check int) "t2 still live" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "both fired" [ 1; 2 ] (List.rev !log);
  Alcotest.(check int) "no cancel counted" 0 (Engine.heap_stats e).Engine.hs_cancels

let test_engine_cancel_interleaved () =
  (* Cancel every other one of a batch at the same instant; survivors
     fire in scheduling order. *)
  let e = Engine.create () in
  let log = ref [] in
  let timers =
    List.init 6 (fun i -> (i, Engine.schedule e ~after:9 (fun () -> log := i :: !log)))
  in
  List.iter (fun (i, t) -> if i mod 2 = 1 then Engine.cancel e t) timers;
  Engine.run e;
  Alcotest.(check (list int)) "even survivors in order" [ 0; 2; 4 ] (List.rev !log);
  Alcotest.(check int) "queue drained" 0 (Engine.pending e)

let test_engine_run_until () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~after:10 (fun () -> log := 10 :: !log));
  ignore (Engine.schedule e ~after:20 (fun () -> log := 20 :: !log));
  Engine.run_until e ~limit:15;
  Alcotest.(check (list int)) "only first" [ 10 ] !log;
  Alcotest.(check int) "clock at limit" 15 (Engine.now e);
  Engine.run_until e ~limit:25;
  Alcotest.(check (list int)) "second fired" [ 20; 10 ] !log

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    ignore (Engine.schedule e ~after:7 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let hit = ref false in
  ignore (Engine.schedule e ~after:(-5) (fun () -> hit := true));
  Engine.run e;
  Alcotest.(check bool) "fired" true !hit;
  Alcotest.(check int) "clock unchanged" 0 (Engine.now e)

let test_clock_skew_bounds () =
  let e = Engine.create () in
  let r = Rng.create 21 in
  for _ = 1 to 200 do
    let c = Clock.create e r ~max_skew:500 in
    let s = Clock.skew c in
    if s < -500 || s > 500 then Alcotest.fail "skew out of bounds"
  done

let test_clock_tracks_engine () =
  let e = Engine.create () in
  let c = Clock.perfect e in
  ignore (Engine.schedule e ~after:123 (fun () -> ()));
  Engine.run e;
  Alcotest.(check int) "tracks" 123 (Clock.read c)

let test_clock_never_negative () =
  let e = Engine.create () in
  let r = Rng.create 2 in
  let rec find_negative n =
    if n = 0 then None
    else
      let c = Clock.create e r ~max_skew:1000 in
      if Clock.skew c < 0 then Some c else find_negative (n - 1)
  in
  match find_negative 100 with
  | None -> ()
  | Some c -> Alcotest.(check int) "clamped" 0 (Clock.read c)

(* Property-based tests. *)

let qcheck_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Heap.create () in
      List.iteri (fun i t -> Heap.push h ~time:t ~seq:i ()) times;
      let rec drain acc =
        match Heap.pop h with Some (t, _, ()) -> drain (t :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare times)

(* Random interleaved pushes and removals against a sorted-list model
   of [(time, seq, value)]: every removal yields the model's minimum
   with the value pushed under that key.  Up to 300 operations with
   pushes twice as likely as removals grow the arrays mid-run, while
   slots are being freed and reused. *)
let qcheck_heap_model =
  QCheck.Test.make ~name:"heap matches a sorted-list model" ~count:300
    QCheck.(list_of_size Gen.(0 -- 300) (option ~ratio:0.67 (int_bound 50)))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] and seq = ref 0 in
      List.for_all
        (function
          | Some time ->
            let v = Printf.sprintf "v%d" !seq in
            Heap.push h ~time ~seq:!seq v;
            model := List.merge compare !model [ (time, !seq, v) ];
            incr seq;
            Heap.length h = List.length !model
          | None -> (
            match !model with
            | [] -> Heap.is_empty h && Heap.pop h = None
            | (time, sq, v) :: rest ->
              model := rest;
              Heap.min_time h = time
              && Heap.min_seq h = sq
              && String.equal (Heap.remove_min h) v
              && Heap.length h = List.length rest))
        ops)

let qcheck_engine_clock_monotone =
  QCheck.Test.make ~name:"engine clock monotone under random scheduling" ~count:100
    QCheck.(list (pair (int_bound 1000) (int_bound 1000)))
    (fun events ->
      let e = Engine.create () in
      let ok = ref true in
      let last = ref 0 in
      List.iter
        (fun (d1, d2) ->
          ignore
            (Engine.schedule e ~after:d1 (fun () ->
                 if Engine.now e < !last then ok := false;
                 last := Engine.now e;
                 ignore (Engine.schedule e ~after:d2 (fun () ->
                     if Engine.now e < !last then ok := false;
                     last := Engine.now e)))))
        events;
      Engine.run e;
      !ok)

let qcheck_zipf_pmf_sums_to_one =
  QCheck.Test.make ~name:"zipf pmf sums to 1" ~count:50
    QCheck.(pair (int_range 1 500) (float_bound_inclusive 1.2))
    (fun (n, theta) ->
      let z = Dist.zipf ~n ~theta in
      let sum = ref 0. in
      for i = 0 to n - 1 do
        sum := !sum +. Dist.zipf_pmf z i
      done;
      abs_float (!sum -. 1.) < 1e-6)

let qcheck_rng_int_in_range =
  QCheck.Test.make ~name:"rng int in range" ~count:1000
    QCheck.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

(* Golden stream: the expected values were generated with the original
   boxed-state generator, so any drift in the stream fails here (every
   seeded run in the repository depends on it).  Floats are compared
   bit-exactly via their hex literals. *)
let rng_golden =
  [
    ( 0,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
        -537132696929009172L; 1961750202426094747L; 6038094601263162090L;
        3207296026000306913L; -4214222208109204676L ],
      [ 767; 850; 839; 222; 373; 45; 456; 470 ],
      [ 4; 4; 4; 2; 4; 1; 0; 1 ],
      [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6;
        0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2;
        0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1 ],
      [ true; false; true; false; true; false; true; false ],
      [ -6411193824288604561L; -5511663747979980962L; 7141179953334974231L;
        -6338048412857661178L; -3912029315837398853L; 2697553276395720353L;
        -4083151137508962626L; 4890566965504419038L ],
      [ 7960286522194355700L; 487617019471545679L ] );
    ( 42,
      [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L;
        885919558081284366L; -353919125003956057L; 4337243929683858115L;
        5152897204343404489L; 2820384354626331986L ],
      [ 140; 595; 570; 183; 779; 57; 244; 993 ],
      [ 3; 2; 0; 5; 4; 6; 0; 5 ],
      [ 0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3;
        0x1.896d649de031p-5; 0x1.f62d40dca5d82p-1; 0x1.e187e2fea8348p-3;
        0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3 ],
      [ true; true; true; false; true; true; true; false ],
      [ 6168158941143839527L; -3019913106490840865L; -1367550982472023797L;
        -7015381238573483236L; -5706006749629217081L; 2300893321553747151L;
        -1304710398959156219L; 7724519035333002459L ],
      [ 2958219263312191191L; 3069497704473277141L ] );
  ]

let test_rng_golden_stream () =
  List.iter
    (fun (seed, i64, i1000, i7, fl, bl, child, after_split) ->
      let draws f = let r = Rng.create seed in List.init 8 (fun _ -> f r) in
      let name what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.(check (list int64)) (name "int64") i64 (draws Rng.int64);
      Alcotest.(check (list int)) (name "int 1000") i1000
        (draws (fun r -> Rng.int r 1000));
      Alcotest.(check (list int)) (name "int 7") i7 (draws (fun r -> Rng.int r 7));
      Alcotest.(check (list int64)) (name "float 1.0 bits")
        (List.map Int64.bits_of_float fl)
        (List.map Int64.bits_of_float (draws (fun r -> Rng.float r 1.0)));
      Alcotest.(check (list bool)) (name "bool") bl (draws Rng.bool);
      let r = Rng.create seed in
      let c = Rng.split r in
      Alcotest.(check (list int64)) (name "split child") child
        (List.init 8 (fun _ -> Rng.int64 c));
      Alcotest.(check (list int64)) (name "parent after split") after_split
        (List.init 2 (fun _ -> Rng.int64 r)))
    rng_golden

(* Minor words [f] allocates per call over [n] calls.  Meaningful only
   in native code: bytecode boxes every int64. *)
let words_per_call ~n f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let native = Sys.backend_type = Sys.Native

let test_rng_int_allocation_free () =
  if native then begin
    let r = Rng.create 5 in
    let sink = ref 0 in
    let w = words_per_call ~n:100_000 (fun () -> sink := !sink + Rng.int r 1000) in
    Alcotest.(check bool) (Printf.sprintf "Rng.int: %.3f words/call" w) true
      (w < 0.01)
  end

let test_heap_push_remove_allocation_free () =
  if native then begin
    let h = Heap.create () and r = Rng.create 6 in
    for i = 0 to 999 do
      Heap.push h ~time:(Rng.int r 10_000) ~seq:i i
    done;
    let seq = ref 1000 in
    let w =
      words_per_call ~n:100_000 (fun () ->
          let time = Heap.min_time h in
          ignore (Heap.remove_min h);
          Heap.push h ~time:(time + 1 + Rng.int r 10_000) ~seq:!seq !seq;
          incr seq)
    in
    Alcotest.(check bool)
      (Printf.sprintf "push + remove_min: %.3f words/call" w) true (w < 0.01)
  end

(* One [schedule] plus the [step] that fires it, with a thousand events
   queued: the action goes into the heap's slab and the handle is an
   int, so nothing is allocated beyond the caller's closure (here one
   closure made once, outside the loop). *)
let test_engine_schedule_step_allocation_free () =
  if native then begin
    let e = Engine.create () and r = Rng.create 8 in
    let action () = () in
    for _ = 1 to 1000 do
      ignore (Engine.schedule e ~after:(Rng.int r 10_000) action)
    done;
    let w =
      words_per_call ~n:100_000 (fun () ->
          ignore (Engine.schedule e ~kind:Engine.Delivery ~after:(Rng.int r 10_000) action);
          ignore (Engine.step e))
    in
    Alcotest.(check bool)
      (Printf.sprintf "schedule + step: %.3f words/event" w) true (w < 0.01)
  end

(* Popped values must not stay reachable through vacated heap slots.
   40 pushes grow the arrays twice (16 -> 32 -> 64); after 39 pops none
   of the popped values may survive a full major GC -- not even the one
   whose push first sized the arrays.  The engine's queue is checked the
   same way: 40 fired actions, none left reachable. *)
let fill_and_drain h weak =
  for i = 0 to 39 do
    let v = ref i in
    Weak.set weak i (Some v);
    Heap.push h ~time:i ~seq:i v
  done;
  for _ = 1 to 39 do
    ignore (Heap.pop h)
  done
[@@inline never]

let schedule_and_fire e weak =
  for i = 0 to 39 do
    let v = ref i in
    Weak.set weak i (Some v);
    ignore (Engine.schedule e ~after:i (fun () -> incr v))
  done;
  Engine.run e
[@@inline never]

let alive_in weak n =
  List.filter (fun i -> Weak.check weak i) (List.init n Fun.id)

let check_none_alive what alive =
  Alcotest.(check (list int)) (what ^ " still reachable") [] alive

let test_heap_releases_popped () =
  let h = Heap.create () and weak = Weak.create 40 in
  fill_and_drain h weak;
  let e = Engine.create () and fired = Weak.create 40 in
  schedule_and_fire e fired;
  Gc.full_major ();
  check_none_alive "popped values" (alive_in weak 39);
  check_none_alive "fired actions" (alive_in fired 40);
  (* Checked after the collection, which keeps both queues reachable. *)
  Alcotest.(check int) "one value still queued" 1 (Heap.length h);
  Alcotest.(check int) "all fired" 40 (Engine.events_fired e)

(* [caml_make_vect] empties the minor heap before filling a large array
   with a young block; the slab's filler is an immediate, so growing the
   queue well past 256 slots never forces a minor collection. *)
let test_engine_growth_no_minor_gc () =
  let e = Engine.create () and sink = ref 0 in
  Gc.minor ();
  let before = (Gc.quick_stat ()).minor_collections in
  for i = 1 to 600 do
    ignore (Engine.schedule e ~after:i (fun () -> sink := !sink + i))
  done;
  let after = (Gc.quick_stat ()).minor_collections in
  Alcotest.(check int) "minor collections while scheduling" 0 (after - before);
  Alcotest.(check int) "all queued" 600 (Engine.pending e)

(* A cancelled event stays queued as a ghost, but its action -- and so
   whatever the action captured -- is released at once. *)
let schedule_and_cancel e weak =
  let v = ref 0 in
  Weak.set weak 0 (Some v);
  Engine.cancel e (Engine.schedule e ~after:1_000 (fun () -> incr v))
[@@inline never]

let test_engine_cancel_releases_action () =
  let e = Engine.create () and weak = Weak.create 1 in
  schedule_and_cancel e weak;
  Gc.full_major ();
  Alcotest.(check int) "ghost still queued" 1 (Engine.raw_pending e);
  Alcotest.(check int) "no live event" 0 (Engine.pending e);
  Alcotest.(check bool) "cancelled action collected" false (Weak.check weak 0);
  Engine.run e;
  Alcotest.(check int) "ghost drained" 0 (Engine.raw_pending e)

let suites =
  [
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int rejects non-positive" `Quick test_rng_int_rejects_nonpositive;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "uniformity" `Slow test_rng_uniformity;
        Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
        Alcotest.test_case "golden stream" `Quick test_rng_golden_stream;
        Alcotest.test_case "int allocation-free" `Quick test_rng_int_allocation_free;
        QCheck_alcotest.to_alcotest qcheck_rng_int_in_range;
      ] );
    ( "sim.dist",
      [
        Alcotest.test_case "zipf theta=0 uniform" `Quick test_zipf_uniform_when_theta_zero;
        Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
        Alcotest.test_case "zipf sample range" `Quick test_zipf_sample_range;
        Alcotest.test_case "zipf sample matches pmf" `Slow test_zipf_sample_matches_pmf;
        Alcotest.test_case "zipf invalid args" `Quick test_zipf_invalid_args;
        QCheck_alcotest.to_alcotest qcheck_zipf_pmf_sums_to_one;
      ] );
    ( "sim.heap",
      [
        Alcotest.test_case "orders by time" `Quick test_heap_orders_by_time;
        Alcotest.test_case "fifo within same time" `Quick test_heap_fifo_within_same_time;
        Alcotest.test_case "random stress" `Quick test_heap_random_stress;
        Alcotest.test_case "push + remove_min allocation-free" `Quick
          test_heap_push_remove_allocation_free;
        Alcotest.test_case "releases popped values" `Quick test_heap_releases_popped;
        QCheck_alcotest.to_alcotest qcheck_heap_sorted;
        QCheck_alcotest.to_alcotest qcheck_heap_model;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "time order" `Quick test_engine_runs_in_time_order;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "pending counts cancelled" `Quick
          test_engine_pending_counts_cancelled;
        Alcotest.test_case "cancel idempotent" `Quick test_engine_cancel_idempotent;
        Alcotest.test_case "cancel releases the action" `Quick
          test_engine_cancel_releases_action;
        Alcotest.test_case "queue growth forces no minor collection" `Quick
          test_engine_growth_no_minor_gc;
        Alcotest.test_case "cancel after fire" `Quick test_engine_cancel_after_fire;
        Alcotest.test_case "cancel stale handle" `Quick test_engine_cancel_stale_handle;
        Alcotest.test_case "cancel interleaved" `Quick test_engine_cancel_interleaved;
        Alcotest.test_case "run_until" `Quick test_engine_run_until;
        Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
        Alcotest.test_case "negative delay clamped" `Quick test_engine_negative_delay_clamped;
        Alcotest.test_case "schedule + step allocation-free" `Quick
          test_engine_schedule_step_allocation_free;
        QCheck_alcotest.to_alcotest qcheck_engine_clock_monotone;
      ] );
    ( "sim.clock",
      [
        Alcotest.test_case "skew bounds" `Quick test_clock_skew_bounds;
        Alcotest.test_case "tracks engine" `Quick test_clock_tracks_engine;
        Alcotest.test_case "never negative" `Quick test_clock_never_negative;
      ] );
  ]
