(* Reference oracle for [Mvstore.Vrecord].  The record creates its four
   per-key tables on first insert; [Eager] is the earlier implementation,
   which built them with the record.  Seeded random sequences of every
   mutating operation drive both, and after each operation every query
   must agree, list order included: a lazily created table must have the
   eager one's bucket layout, so that every fold visits in the same
   order. *)

module Version = Cc_types.Version
module Vrecord = Mvstore.Vrecord

module Eager = struct
  type reply = Vrecord.reply = { r_ver : Version.t; r_val : string }

  type read = Vrecord.read = { reader : Version.t; coord : int; mutable last : reply }

  type t = {
    mutable uncommitted_writes : string Version.Map.t;
    reads : (Version.t, read) Hashtbl.t;
    prepared_reads : (Version.t, int * Version.t) Hashtbl.t;  (* reader -> eid, r_ver *)
    prepared_writes : (Version.t, int) Hashtbl.t;  (* writer -> eid *)
    mutable committed_writes : string Version.Map.t;
    committed_reads : (Version.t, Version.t) Hashtbl.t;  (* reader -> r_ver *)
  }

  let create () =
    {
      uncommitted_writes = Version.Map.empty;
      reads = Hashtbl.create 8;
      prepared_reads = Hashtbl.create 8;
      prepared_writes = Hashtbl.create 8;
      committed_writes = Version.Map.empty;
      committed_reads = Hashtbl.create 8;
    }

  let no_reply = { r_ver = Version.zero; r_val = "" }

  let latest_committed_before t ver =
    match
      Version.Map.find_last_opt (fun v -> Version.compare v ver < 0) t.committed_writes
    with
    | Some (v, value) -> { r_ver = v; r_val = value }
    | None -> no_reply

  let latest_before t ver =
    let pick map =
      Version.Map.find_last_opt (fun v -> Version.compare v ver < 0) map
    in
    match (pick t.committed_writes, pick t.uncommitted_writes) with
    | None, None -> no_reply
    | Some (v, value), None | None, Some (v, value) -> { r_ver = v; r_val = value }
    | Some (cv, cval), Some (uv, uval) ->
      if Version.compare cv uv >= 0 then { r_ver = cv; r_val = cval }
      else { r_ver = uv; r_val = uval }

  let add_read t ~reader ~coord reply =
    match Hashtbl.find_opt t.reads reader with
    | Some r -> r.last <- reply
    | None -> Hashtbl.replace t.reads reader { reader; coord; last = reply }

  let find_read t reader = Hashtbl.find_opt t.reads reader

  let add_write t ~ver value =
    t.uncommitted_writes <- Version.Map.add ver value t.uncommitted_writes;
    Hashtbl.fold
      (fun _ r acc ->
        let missed =
          Version.compare ver r.reader < 0
          && (Version.compare r.last.r_ver ver < 0
              || (Version.equal r.last.r_ver ver
                  && not (String.equal r.last.r_val value)))
        in
        if missed then r :: acc else acc)
      t.reads []

  type missed_write = Vrecord.missed_write =
    | No_miss
    | Missed_uncommitted of reply
    | Missed_committed of reply

  let write_missed_by_read t ~reader ~r_ver =
    (* The latest write strictly below [reader]; it is a miss iff it is
       also strictly above [r_ver]. *)
    let below_reader map =
      Version.Map.find_last_opt (fun v -> Version.compare v reader < 0) map
    in
    let miss_in map =
      match below_reader map with
      | Some (v, value) when Version.compare r_ver v < 0 -> Some { r_ver = v; r_val = value }
      | Some _ | None -> None
    in
    match miss_in t.committed_writes with
    | Some r -> Missed_committed r
    | None ->
      (match miss_in t.uncommitted_writes with
       | Some r -> Missed_uncommitted r
       | None -> No_miss)

  let committed_read_missing_write t ~w_ver =
    Hashtbl.fold
      (fun reader r_ver acc ->
        acc
        || (Version.compare w_ver reader < 0 && Version.compare r_ver w_ver < 0))
      t.committed_reads false

  let prepared_read_missing_write t ~w_ver =
    Hashtbl.fold
      (fun reader (_eid, r_ver) acc ->
        acc
        || ((not (Version.equal reader w_ver))
            && Version.compare w_ver reader < 0
            && Version.compare r_ver w_ver < 0))
      t.prepared_reads false

  let committed_value t ver = Version.Map.find_opt ver t.committed_writes

  let newest_committed t =
    Option.map fst (Version.Map.max_binding_opt t.committed_writes)

  let prepare_read t ~reader ~eid ~r_ver =
    Hashtbl.replace t.prepared_reads reader (eid, r_ver)

  let prepare_write t ~ver ~eid = Hashtbl.replace t.prepared_writes ver eid

  let unprepare t ~ver ~eid =
    (match Hashtbl.find_opt t.prepared_reads ver with
     | Some (e, _) when e = eid -> Hashtbl.remove t.prepared_reads ver
     | Some _ | None -> ());
    match Hashtbl.find_opt t.prepared_writes ver with
    | Some e when e = eid -> Hashtbl.remove t.prepared_writes ver
    | Some _ | None -> ()

  let unprepare_all t ~ver =
    Hashtbl.remove t.prepared_reads ver;
    Hashtbl.remove t.prepared_writes ver

  let commit_write t ~ver value =
    t.committed_writes <- Version.Map.add ver value t.committed_writes;
    t.uncommitted_writes <- Version.Map.remove ver t.uncommitted_writes;
    Hashtbl.remove t.prepared_writes ver

  let commit_read t ~reader ~r_ver =
    Hashtbl.replace t.committed_reads reader r_ver;
    Hashtbl.remove t.prepared_reads reader;
    Hashtbl.remove t.reads reader

  let abort_writes t ~ver =
    t.uncommitted_writes <- Version.Map.remove ver t.uncommitted_writes;
    Hashtbl.remove t.prepared_writes ver

  let remove_read t reader =
    Hashtbl.remove t.reads reader;
    Hashtbl.remove t.prepared_reads reader

  let reads_missing_version t ~ver value =
    Hashtbl.fold
      (fun _ r acc ->
        let missed =
          Version.compare ver r.reader < 0
          && (Version.compare r.last.r_ver ver < 0
              || (Version.equal r.last.r_ver ver
                  && not (String.equal r.last.r_val value)))
        in
        if missed then r :: acc else acc)
      t.reads []

  let reads_observing t ver =
    Hashtbl.fold
      (fun _ r acc -> if Version.equal r.last.r_ver ver then r :: acc else acc)
      t.reads []

  let gc_below t watermark =
    let stale reader = Version.compare reader watermark < 0 in
    let to_remove =
      Hashtbl.fold (fun reader _ acc -> if stale reader then reader :: acc else acc)
        t.committed_reads []
    in
    List.iter (Hashtbl.remove t.committed_reads) to_remove;
    (* Keep the newest committed write below the watermark (the key's
       current value as of the watermark): it is what any snapshot read at
       [snap >= watermark] observes, and what the below-watermark
       read-validation exact-match compares against.  Truncation rounds
       complete well after their cutoff, so commits above the watermark
       usually exist by now — the global newest is NOT a safe stand-in. *)
    match
      Version.Map.find_last_opt (fun v -> stale v) t.committed_writes
    with
    | None -> ()
    | Some (newest_below, _) ->
      t.committed_writes <-
        Version.Map.filter
          (fun v _ -> Version.equal v newest_below || not (stale v))
          t.committed_writes

  let stats t =
    ( Hashtbl.length t.reads,
      Version.Map.cardinal t.uncommitted_writes,
      Hashtbl.length t.prepared_reads + Hashtbl.length t.prepared_writes,
      Version.Map.cardinal t.committed_writes )

  let committed_writes_list t = Version.Map.bindings t.committed_writes

  let committed_reads_list t =
    List.sort compare
      (Hashtbl.fold (fun reader r_ver acc -> (reader, r_ver) :: acc)
         t.committed_reads [])
end

(* ---- Random operation sequences ---- *)

(* 40 readers/writers, so a table can outgrow its initial 16 buckets
   (a resize happens past 32 bindings). *)
let universe = Array.init 40 (fun i -> Version.make ~ts:(i + 1) ~id:(i mod 3))

let values = [| "a"; "b"; "c" |]

type op =
  | Add_read of Version.t * int * Vrecord.reply
  | Add_write of Version.t * string
  | Prepare_read of Version.t * int * Version.t
  | Prepare_write of Version.t * int
  | Unprepare of Version.t * int
  | Unprepare_all of Version.t
  | Commit_write of Version.t * string
  | Commit_read of Version.t * Version.t
  | Abort_writes of Version.t
  | Remove_read of Version.t
  | Gc_below of Version.t

let pick rs a = a.(Random.State.int rs (Array.length a))
let ver rs = pick rs universe

(* A version a read may have observed: the initial one or any other. *)
let r_ver rs = if Random.State.int rs 5 = 0 then Version.zero else ver rs

(* [read_heavy] sequences mostly register reads, to grow the tables. *)
let gen_op rs ~read_heavy =
  let roll = Random.State.int rs 100 in
  let roll = if read_heavy && roll < 70 then 0 else roll in
  if roll < 25 then
    Add_read
      (ver rs, Random.State.int rs 4, { Vrecord.r_ver = r_ver rs; r_val = pick rs values })
  else if roll < 37 then Add_write (ver rs, pick rs values)
  else if roll < 49 then Prepare_read (ver rs, Random.State.int rs 3, r_ver rs)
  else if roll < 57 then Prepare_write (ver rs, Random.State.int rs 3)
  else if roll < 62 then Unprepare (ver rs, Random.State.int rs 3)
  else if roll < 65 then Unprepare_all (ver rs)
  else if roll < 73 then Commit_write (ver rs, pick rs values)
  else if roll < 85 then Commit_read (ver rs, r_ver rs)
  else if roll < 89 then Abort_writes (ver rs)
  else if roll < 95 then Remove_read (ver rs)
  else Gc_below (ver rs)

let read_view (r : Vrecord.read) = (r.reader, r.coord, r.last.r_ver, r.last.r_val)

let reads_view = List.map read_view

let same ~seed ~step what a b =
  if a <> b then Alcotest.failf "seed %d, step %d: %s differs" seed step what

(* Apply [op] to both records.  [add_write]'s missed reads must match;
   the caller then refreshes some of them, as a replica does. *)
let apply rs ~seed ~step lz eg = function
  | Add_read (reader, coord, reply) ->
    Vrecord.add_read lz ~reader ~coord reply;
    Eager.add_read eg ~reader ~coord reply
  | Add_write (ver, value) ->
    let ml = Vrecord.add_write lz ~ver value in
    let me = Eager.add_write eg ~ver value in
    same ~seed ~step "add_write missed list" (reads_view ml) (reads_view me);
    List.iter2
      (fun (a : Vrecord.read) (b : Vrecord.read) ->
        if Random.State.bool rs then begin
          a.last <- { r_ver = ver; r_val = value };
          b.last <- { r_ver = ver; r_val = value }
        end)
      ml me
  | Prepare_read (reader, eid, r_ver) ->
    Vrecord.prepare_read lz ~reader ~eid ~r_ver;
    Eager.prepare_read eg ~reader ~eid ~r_ver
  | Prepare_write (ver, eid) ->
    Vrecord.prepare_write lz ~ver ~eid;
    Eager.prepare_write eg ~ver ~eid
  | Unprepare (ver, eid) ->
    Vrecord.unprepare lz ~ver ~eid;
    Eager.unprepare eg ~ver ~eid
  | Unprepare_all ver ->
    Vrecord.unprepare_all lz ~ver;
    Eager.unprepare_all eg ~ver
  | Commit_write (ver, value) ->
    Vrecord.commit_write lz ~ver value;
    Eager.commit_write eg ~ver value
  | Commit_read (reader, r_ver) ->
    Vrecord.commit_read lz ~reader ~r_ver;
    Eager.commit_read eg ~reader ~r_ver
  | Abort_writes ver ->
    Vrecord.abort_writes lz ~ver;
    Eager.abort_writes eg ~ver
  | Remove_read reader ->
    Vrecord.remove_read lz reader;
    Eager.remove_read eg reader
  | Gc_below w ->
    Vrecord.gc_below lz w;
    Eager.gc_below eg w

(* Every query, at a few random probe versions. *)
let compare_queries rs ~seed ~step lz eg =
  let same what = same ~seed ~step what in
  same "stats" (Vrecord.stats lz) (Eager.stats eg);
  same "committed_writes_list" (Vrecord.committed_writes_list lz)
    (Eager.committed_writes_list eg);
  same "committed_reads_list" (Vrecord.committed_reads_list lz)
    (Eager.committed_reads_list eg);
  same "newest_committed" (Vrecord.newest_committed lz) (Eager.newest_committed eg);
  for _ = 1 to 4 do
    let p = r_ver rs and q = r_ver rs and value = pick rs values in
    same "latest_before" (Vrecord.latest_before lz p) (Eager.latest_before eg p);
    same "latest_committed_before"
      (Vrecord.latest_committed_before lz p)
      (Eager.latest_committed_before eg p);
    same "find_read"
      (Option.map read_view (Vrecord.find_read lz p))
      (Option.map read_view (Eager.find_read eg p));
    same "write_missed_by_read"
      (Vrecord.write_missed_by_read lz ~reader:p ~r_ver:q)
      (Eager.write_missed_by_read eg ~reader:p ~r_ver:q);
    same "committed_read_missing_write"
      (Vrecord.committed_read_missing_write lz ~w_ver:p)
      (Eager.committed_read_missing_write eg ~w_ver:p);
    same "prepared_read_missing_write"
      (Vrecord.prepared_read_missing_write lz ~w_ver:p)
      (Eager.prepared_read_missing_write eg ~w_ver:p);
    same "committed_value" (Vrecord.committed_value lz p) (Eager.committed_value eg p);
    same "reads_missing_version"
      (reads_view (Vrecord.reads_missing_version lz ~ver:p value))
      (reads_view (Eager.reads_missing_version eg ~ver:p value));
    same "reads_observing"
      (reads_view (Vrecord.reads_observing lz p))
      (reads_view (Eager.reads_observing eg p))
  done

let test_matches_eager () =
  let grown = ref 0 and hits = ref 0 in
  for seed = 1 to 2_000 do
    let rs = Random.State.make [| seed |] in
    let read_heavy = seed mod 2 = 0 in
    let lz = Vrecord.create () and eg = Eager.create () in
    let peak = ref 0 in
    let len =
      if read_heavy then 60 + Random.State.int rs 140
      else 20 + Random.State.int rs 80
    in
    for step = 1 to len do
      apply rs ~seed ~step lz eg (gen_op rs ~read_heavy);
      compare_queries rs ~seed ~step lz eg;
      let reads, _, _, _ = Eager.stats eg in
      let committed_reads = List.length (Eager.committed_reads_list eg) in
      peak := max !peak (max reads committed_reads);
      if Eager.committed_read_missing_write eg ~w_ver:(ver rs) then incr hits
    done;
    if !peak > 32 then incr grown
  done;
  (* Coverage: tables outgrew 16 buckets, and the short-circuiting
     scans were exercised on hits as well as misses. *)
  Alcotest.(check bool) (Printf.sprintf "%d sequences grew a table" !grown) true
    (!grown >= 100);
  Alcotest.(check bool) (Printf.sprintf "%d check-2a hits" !hits) true (!hits >= 1_000)

(* A fresh record allocates only itself (header + 6 fields): its tables
   come with the first insert.  Measured in native code only. *)
let test_create_allocation_budget () =
  if Sys.backend_type = Sys.Native then begin
    let sink = ref (Vrecord.create ()) in
    let n = 100_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      sink := Vrecord.create ()
    done;
    let w = (Gc.minor_words () -. w0) /. float_of_int n in
    ignore (Sys.opaque_identity !sink);
    let budget = 12. in
    Alcotest.(check bool)
      (Printf.sprintf "Vrecord.create: %.2f words (budget %.0f)" w budget)
      true (w <= budget +. 0.01)
  end

let suites =
  [
    ( "mvstore.vrecord oracle",
      [
        Alcotest.test_case "matches the eager record" `Quick test_matches_eager;
        Alcotest.test_case "create allocation budget" `Quick
          test_create_allocation_budget;
      ] );
  ]
