(* Offline lineage inspector: answer "why did this transaction abort /
   re-execute?" from a lineage JSONL file (written by morty_bench
   --lineage-out, morty_explore --lineage-out, or a sweep failure's
   f_lineage artifact).

     morty_inspect explain  FILE v(ts,id)   causal account of one txn
     morty_inspect hot-keys FILE [N]        top-N contended keys
     morty_inspect cascades FILE            cascade stats + aggressor matrix
     morty_inspect diff     FILE_A FILE_B   compare two runs' digests

   Everything is derived from the file alone — no simulator state — so
   the tool works on artifacts from any of the four systems. *)

let usage () =
  prerr_endline
    "usage: morty_inspect explain FILE TXN   (TXN like 'v(ts,id)' or 'ts,id')\n\
    \       morty_inspect hot-keys FILE [N]\n\
    \       morty_inspect cascades FILE\n\
    \       morty_inspect diff FILE_A FILE_B\n\
     exit codes: 0 ok, 2 usage, 3 missing file,\n\
    \            4 empty or malformed artifact";
  exit 2

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error msg ->
    Printf.eprintf "morty_inspect: %s\n" msg;
    exit 3

let load path =
  match Obs.Lineage.parse_jsonl (read_file path) with
  | [] ->
    Printf.eprintf "morty_inspect: %s: empty artifact (no lineage records)\n"
      path;
    exit 4
  | recs -> recs
  | exception Failure msg ->
    Printf.eprintf "morty_inspect: %s: %s\n" path msg;
    exit 4

let explain path spec =
  match Obs.Lineage.ver_of_string spec with
  | None ->
    Printf.eprintf
      "morty_inspect: cannot parse transaction id %S (want 'v(ts,id)', \
       'ts,id' or 'ts:id')\n"
      spec;
    exit 2
  | Some ver -> print_string (Obs.Lineage.explain (load path) ver)

let hot_keys path n =
  let recs = load path in
  let hot = Obs.Lineage.hot_keys recs n in
  if hot = [] then print_endline "no contention recorded"
  else begin
    Printf.printf "%-32s %8s %9s %7s %6s\n" "key" "reexecs" "conflicts"
      "aborts" "heat";
    List.iter
      (fun (key, h) ->
        Printf.printf "%-32s %8d %9d %7d %6d\n" key
          h.Obs.Lineage.hk_reexecs h.Obs.Lineage.hk_conflicts
          h.Obs.Lineage.hk_aborts
          (h.Obs.Lineage.hk_reexecs + h.Obs.Lineage.hk_conflicts
          + h.Obs.Lineage.hk_aborts))
      hot
  end

let cascades path =
  let recs = load path in
  let c = Obs.Lineage.cascades recs in
  Printf.printf
    "cascades=%d victims=%d depth_p99=%.2f depth_max=%d max_fanout=%d \
     salvaged_us=%d lost_us=%d\n"
    c.Obs.Lineage.c_count c.Obs.Lineage.c_victims c.Obs.Lineage.c_depth_p99
    c.Obs.Lineage.c_depth_max c.Obs.Lineage.c_max_fanout
    c.Obs.Lineage.c_salvaged_us c.Obs.Lineage.c_lost_us;
  if c.Obs.Lineage.c_depth_hist <> [] then begin
    print_endline "blame-chain depth histogram:";
    List.iter
      (fun (d, n) -> Printf.printf "  depth %2d: %d\n" d n)
      c.Obs.Lineage.c_depth_hist
  end;
  match Obs.Lineage.matrix recs with
  | [] -> ()
  | m ->
    print_endline "aggressor x victim (by transaction type):";
    List.iter
      (fun ((agg, vic), n) -> Printf.printf "  %-14s -> %-14s %d\n" agg vic n)
      m

let diff path_a path_b =
  let line name (a : Obs.Lineage.summary) =
    Printf.printf
      "%-10s txns=%d edges=%d cascades=%d depth_p99=%.2f depth_max=%d \
       salvaged_us=%d lost_us=%d hot=%s\n"
      name a.Obs.Lineage.s_txns a.Obs.Lineage.s_edges a.Obs.Lineage.s_cascades
      a.Obs.Lineage.s_depth_p99 a.Obs.Lineage.s_depth_max
      a.Obs.Lineage.s_salvaged_us a.Obs.Lineage.s_lost_us
      a.Obs.Lineage.s_hot_key
  in
  let a = Obs.Lineage.summary (load path_a) in
  let b = Obs.Lineage.summary (load path_b) in
  line "a" a;
  line "b" b;
  Printf.printf
    "%-10s txns=%+d edges=%+d cascades=%+d depth_p99=%+.2f depth_max=%+d \
     salvaged_us=%+d lost_us=%+d hot=%s\n"
    "b-a"
    (b.Obs.Lineage.s_txns - a.Obs.Lineage.s_txns)
    (b.Obs.Lineage.s_edges - a.Obs.Lineage.s_edges)
    (b.Obs.Lineage.s_cascades - a.Obs.Lineage.s_cascades)
    (b.Obs.Lineage.s_depth_p99 -. a.Obs.Lineage.s_depth_p99)
    (b.Obs.Lineage.s_depth_max - a.Obs.Lineage.s_depth_max)
    (b.Obs.Lineage.s_salvaged_us - a.Obs.Lineage.s_salvaged_us)
    (b.Obs.Lineage.s_lost_us - a.Obs.Lineage.s_lost_us)
    (if b.Obs.Lineage.s_hot_key = a.Obs.Lineage.s_hot_key then "same"
     else a.Obs.Lineage.s_hot_key ^ "->" ^ b.Obs.Lineage.s_hot_key)

let () =
  match Array.to_list Sys.argv with
  | _ :: "explain" :: path :: spec :: [] -> explain path spec
  | _ :: "hot-keys" :: path :: rest ->
    let n =
      match rest with
      | [] -> 10
      | [ s ] -> (
        match int_of_string_opt s with Some n when n > 0 -> n | _ -> usage ())
      | _ -> usage ()
    in
    hot_keys path n
  | _ :: "cascades" :: path :: [] -> cascades path
  | _ :: "diff" :: path_a :: path_b :: [] -> diff path_a path_b
  | _ -> usage ()
