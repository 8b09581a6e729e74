module Version = Cc_types.Version

type reply = { r_ver : Version.t; r_val : string }

type read = { reader : Version.t; coord : int; mutable last : reply }

(* Most keys of a run are never read or prepared, so each table is
   created by its first insert ([None] until then).  The table is
   created as [Hashtbl.create 8], so its bucket layout, and with it every
   fold order, is the same as if it had been built with the record.  The
   [None] is per record: a shared empty table would be written by every
   fold's traversal flag, from several domains under [--jobs]. *)
type ('k, 'v) table = ('k, 'v) Hashtbl.t option

type t = {
  mutable uncommitted_writes : string Version.Map.t;
  mutable reads : (Version.t, read) table;
  mutable prepared_reads : (Version.t, int * Version.t) table;  (* reader -> eid, r_ver *)
  mutable prepared_writes : (Version.t, int) table;  (* writer -> eid *)
  mutable committed_writes : string Version.Map.t;
  mutable committed_reads : (Version.t, Version.t) table;  (* reader -> r_ver *)
}

let create () =
  {
    uncommitted_writes = Version.Map.empty;
    reads = None;
    prepared_reads = None;
    prepared_writes = None;
    committed_writes = Version.Map.empty;
    committed_reads = None;
  }

(* The table a first insert creates. *)
let singleton k v =
  let h = Hashtbl.create 8 in
  Hashtbl.replace h k v;
  Some h

let find_opt tbl k = match tbl with Some h -> Hashtbl.find_opt h k | None -> None

let remove tbl k = match tbl with Some h -> Hashtbl.remove h k | None -> ()

let fold f tbl acc = match tbl with Some h -> Hashtbl.fold f h acc | None -> acc

let length = function Some h -> Hashtbl.length h | None -> 0

(* Stops at the first binding satisfying [p]. *)
let exists p = function
  | None -> false
  | Some h -> (
    match Hashtbl.iter (fun k v -> if p k v then raise_notrace Exit) h with
    | () -> false
    | exception Exit -> true)

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
  match t.reads with
  | None -> t.reads <- singleton reader { reader; coord; last = reply }
  | Some h -> (
    match Hashtbl.find_opt h reader with
    | Some r -> r.last <- reply
    | None -> Hashtbl.replace h reader { reader; coord; last = reply })

let find_read t reader = find_opt t.reads reader

let add_write t ~ver value =
  t.uncommitted_writes <- Version.Map.add ver value t.uncommitted_writes;
  fold
    (fun _ r acc ->
      let missed =
        Version.compare ver r.reader < 0
        && (Version.compare r.last.r_ver ver < 0
            || (Version.equal r.last.r_ver ver
                && not (String.equal r.last.r_val value)))
      in
      if missed then r :: acc else acc)
    t.reads []

type missed_write =
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
  exists
    (fun reader r_ver ->
      Version.compare w_ver reader < 0 && Version.compare r_ver w_ver < 0)
    t.committed_reads

let prepared_read_missing_write t ~w_ver =
  exists
    (fun reader (_eid, r_ver) ->
      (not (Version.equal reader w_ver))
      && Version.compare w_ver reader < 0
      && Version.compare r_ver w_ver < 0)
    t.prepared_reads

let committed_value t ver = Version.Map.find_opt ver t.committed_writes

let newest_committed t =
  Option.map fst (Version.Map.max_binding_opt t.committed_writes)

let prepare_read t ~reader ~eid ~r_ver =
  match t.prepared_reads with
  | Some h -> Hashtbl.replace h reader (eid, r_ver)
  | None -> t.prepared_reads <- singleton reader (eid, r_ver)

let prepare_write t ~ver ~eid =
  match t.prepared_writes with
  | Some h -> Hashtbl.replace h ver eid
  | None -> t.prepared_writes <- singleton ver eid

let unprepare t ~ver ~eid =
  (match find_opt t.prepared_reads ver with
   | Some (e, _) when e = eid -> remove t.prepared_reads ver
   | Some _ | None -> ());
  match find_opt t.prepared_writes ver with
  | Some e when e = eid -> remove t.prepared_writes ver
  | Some _ | None -> ()

let unprepare_all t ~ver =
  remove t.prepared_reads ver;
  remove t.prepared_writes ver

let commit_write t ~ver value =
  t.committed_writes <- Version.Map.add ver value t.committed_writes;
  t.uncommitted_writes <- Version.Map.remove ver t.uncommitted_writes;
  remove t.prepared_writes ver

let commit_read t ~reader ~r_ver =
  (match t.committed_reads with
   | Some h -> Hashtbl.replace h reader r_ver
   | None -> t.committed_reads <- singleton reader r_ver);
  remove t.prepared_reads reader;
  remove t.reads reader

let abort_writes t ~ver =
  t.uncommitted_writes <- Version.Map.remove ver t.uncommitted_writes;
  remove t.prepared_writes ver

let remove_read t reader =
  remove t.reads reader;
  remove t.prepared_reads reader

let reads_missing_version t ~ver value =
  fold
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
  fold
    (fun _ r acc -> if Version.equal r.last.r_ver ver then r :: acc else acc)
    t.reads []

let gc_below t watermark =
  let stale reader = Version.compare reader watermark < 0 in
  let to_remove =
    fold (fun reader _ acc -> if stale reader then reader :: acc else acc)
      t.committed_reads []
  in
  List.iter (remove t.committed_reads) to_remove;
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
  ( length t.reads,
    Version.Map.cardinal t.uncommitted_writes,
    length t.prepared_reads + length t.prepared_writes,
    Version.Map.cardinal t.committed_writes )

let committed_writes_list t = Version.Map.bindings t.committed_writes

let committed_reads_list t =
  List.sort compare
    (fold (fun reader r_ver acc -> (reader, r_ver) :: acc) t.committed_reads [])
