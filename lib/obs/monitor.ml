(* Online invariant monitors.

   Pure observers of protocol state transitions: replicas and clients
   report typed transitions as they happen and the monitor checks each
   one against the invariant it witnesses, recording violations with
   their evidence.  Monitors never change scheduling, draw no
   randomness, and emit nothing of their own into the run — attaching
   one to a seeded run leaves every byte of its output unchanged.  The
   {!null} monitor reduces every hook to a single [if false] branch.

   Like the profiler, this module knows nothing about protocol types:
   versions arrive as [(ts, id)] pairs, replicas as label strings and
   message kinds as strings, keeping [obs] dependency-free. *)

type ver = int * int

type lock_mode = Read | Write

type transition =
  | Watermark of { replica : string; wm : ver }
      (** the replica's truncation watermark moved to [wm] *)
  | Trunc_read of { replica : string; key : string; served : ver; newest : ver }
      (** a read below the watermark was accepted because it allegedly
          named the newest committed write ([newest] as the replica sees
          it) — the PR 2 truncation-safety carve-out *)
  | Record_count of { replica : string; count : int }
      (** erecord / prepared-set size after an insertion *)
  | Fast_path of { ver : ver; quorum : int; votes : string list }
      (** a coordinator took the fast path on [votes] (all replies it
          held), claiming [quorum] matching Commit votes *)
  | Read_serve of { replica : string; key : string; reader : ver; served : ver }
      (** an MVTSO-style read by [reader] was served version [served] *)
  | Commit_install of { replica : string; key : string; ver : ver }
      (** a committed write [ver] was installed for [key] *)
  | Gc_survivor of { replica : string; key : string; newest : ver option; wm : ver }
      (** after truncation GC below [wm], the newest committed version
          still stored for [key] is [newest] *)
  | Lock_grant of {
      replica : string;
      key : string;
      txn : ver;
      mode : lock_mode;
      writer : ver option;  (** lock-table writer after the grant *)
      readers : ver list;  (** lock-table readers after the grant *)
    }
  | Ir_op of { replica : string; op : string; consensus : bool }
      (** a TAPIR replica processed IR operation [op], classed as
          consensus ([true]) or inconsistent ([false]) *)
  | Ro_pin of {
      replica : string;
      snap : ver;
      wm : ver;
      staleness_us : int;
      bound_us : int;
    }
      (** a follower-read snapshot [snap] was pinned at [replica], whose
          watermark was [wm]; the snapshot lagged real time by
          [staleness_us] against the configured [bound_us] *)
  | Ro_serve of { replica : string; key : string; snap : ver; wm : ver }
      (** [replica] served a follower-read at snapshot [snap] for [key]
          while its watermark was [wm] *)

type violation = {
  vi_invariant : string;
  vi_ts : int;
  vi_where : string;
  vi_detail : string;
}

type incident = { in_ts : int; in_kind : string; in_detail : string }

type state_view = {
  v_replica : string;
  v_stopped : bool;
  v_recovering : bool;
  v_watermark : ver option;
  v_records : int;
  v_store_keys : int;
  v_store_versions : int;
  v_counters : (string * int) list;
}

type t = {
  enabled : bool;
  max_records : int;
  mutable n_observed : int;
  mutable n_violations : int;
  mutable violations : violation list;  (* newest first, capped *)
  mutable incidents : incident list;  (* newest first *)
  (* per-replica tracked state; cleared on kill because a restarted
     replica is a fresh incarnation whose catch-up state may lawfully
     trail what its predecessor had *)
  wmarks : (string, ver) Hashtbl.t;
  maxcommit : (string * string, ver) Hashtbl.t;
  mutable view_sources : (unit -> state_view list) list;
}

let stored_violations_cap = 256

let make ~enabled ~max_records =
  {
    enabled;
    max_records;
    n_observed = 0;
    n_violations = 0;
    violations = [];
    incidents = [];
    wmarks = Hashtbl.create 16;
    maxcommit = Hashtbl.create 256;
    view_sources = [];
  }

(* Per-domain disabled instance — see the note on [Sink.null]. *)
let null_key = Domain.DLS.new_key (fun () -> make ~enabled:false ~max_records:0)
let null () = Domain.DLS.get null_key
let create ?(max_records = 1 lsl 20) () = make ~enabled:true ~max_records
let enabled t = t.enabled

let pp_ver ppf (ts, id) = Format.fprintf ppf "%d.%d" ts id
let ver_str v = Format.asprintf "%a" pp_ver v

let ver_opt_str = function None -> "none" | Some v -> ver_str v

let violate t ~ts ~invariant ~where ~detail =
  t.n_violations <- t.n_violations + 1;
  if t.n_violations <= stored_violations_cap then
    t.violations <-
      { vi_invariant = invariant; vi_ts = ts; vi_where = where;
        vi_detail = detail }
      :: t.violations

(* Versions order lexicographically on (ts, id) — the same total order
   [Cc_types.Version.compare] uses. *)
let vcmp (a : ver) (b : ver) = compare a b

let check_watermark t ~ts ~replica wm =
  (match Hashtbl.find_opt t.wmarks replica with
  | Some old when vcmp wm old < 0 ->
    violate t ~ts ~invariant:"watermark-monotone" ~where:replica
      ~detail:
        (Printf.sprintf "watermark regressed %s -> %s" (ver_str old)
           (ver_str wm))
  | Some _ | None -> ());
  Hashtbl.replace t.wmarks replica wm

let check_trunc_read t ~ts ~replica ~key ~served ~newest =
  if vcmp served newest <> 0 then
    violate t ~ts ~invariant:"truncation-safety" ~where:replica
      ~detail:
        (Printf.sprintf
           "read of %s below watermark accepted for key %s but newest \
            committed is %s"
           (ver_str served) key (ver_str newest))

let check_records t ~ts ~replica count =
  if count > t.max_records then
    violate t ~ts ~invariant:"records-bounded" ~where:replica
      ~detail:
        (Printf.sprintf "record table holds %d entries, bound is %d" count
           t.max_records)

let check_fast_path t ~ts ~ver ~quorum votes =
  let commits = List.length (List.filter (String.equal "commit") votes) in
  if commits < quorum || commits <> List.length votes then
    violate t ~ts ~invariant:"fastpath-votes" ~where:"client"
      ~detail:
        (Printf.sprintf
           "fast-path commit of %s on votes [%s]: %d commit votes, quorum \
            needs %d matching"
           (ver_str ver)
           (String.concat "," votes)
           commits quorum)

let check_read_serve t ~ts ~replica ~key ~reader ~served =
  if vcmp served reader >= 0 then
    violate t ~ts ~invariant:"mvtso-read-order" ~where:replica
      ~detail:
        (Printf.sprintf "read by %s on key %s served version %s (not below \
                         the reader)"
           (ver_str reader) key (ver_str served))

let note_install t ~replica ~key ver =
  let k = (replica, key) in
  match Hashtbl.find_opt t.maxcommit k with
  | Some old when vcmp old ver >= 0 -> ()
  | Some _ | None -> Hashtbl.replace t.maxcommit k ver

let check_gc_survivor t ~ts ~replica ~key ~newest ~wm =
  match Hashtbl.find_opt t.maxcommit (replica, key) with
  | None -> ()
  | Some max_seen ->
    let ok = match newest with None -> false | Some n -> vcmp n max_seen >= 0 in
    if not ok then
      violate t ~ts ~invariant:"store-version-monotone" ~where:replica
        ~detail:
          (Printf.sprintf
             "GC below watermark %s dropped key %s's newest committed write: \
              had %s, now %s"
             (ver_str wm) key (ver_str max_seen) (ver_opt_str newest))

let check_lock_grant t ~ts ~replica ~key ~txn ~mode ~writer ~readers =
  let bad detail = violate t ~ts ~invariant:"lock-exclusion" ~where:replica ~detail in
  let holders () =
    Printf.sprintf "writer=%s readers=[%s]" (ver_opt_str writer)
      (String.concat "," (List.map ver_str readers))
  in
  match mode with
  | Write ->
    let self_is_writer =
      match writer with Some w -> vcmp w txn = 0 | None -> false
    in
    let other_readers = List.filter (fun r -> vcmp r txn <> 0) readers in
    if not self_is_writer then
      bad
        (Printf.sprintf "write lock on %s granted to %s but %s" key
           (ver_str txn) (holders ()))
    else if other_readers <> [] then
      bad
        (Printf.sprintf
           "write lock on %s granted to %s while readers hold it: %s" key
           (ver_str txn) (holders ()))
  | Read -> (
    match writer with
    | Some w when vcmp w txn <> 0 ->
      bad
        (Printf.sprintf "read lock on %s granted to %s while writer %s holds \
                         it" key (ver_str txn) (ver_str w))
    | Some _ | None ->
      if not (List.exists (fun r -> vcmp r txn = 0) readers) then
        bad
          (Printf.sprintf "read lock on %s granted to %s but grantee absent \
                           from holders: %s" key (ver_str txn) (holders ())))

(* The IR operation classes TAPIR fixes per message kind: Prepare runs
   as a consensus operation (replicas may disagree and the client
   decides), the decision-carrying Finalize belongs to the same
   consensus slot, and Commit/Abort are inconsistent operations
   (fire-and-forget, always succeed). *)
let ir_expected_class op =
  match op with
  | "prepare" | "finalize" -> Some true
  | "commit" | "abort" -> Some false
  | _ -> None

let check_ir_op t ~ts ~replica ~op ~consensus =
  match ir_expected_class op with
  | None ->
    violate t ~ts ~invariant:"ir-op-class" ~where:replica
      ~detail:(Printf.sprintf "unknown IR operation kind %S" op)
  | Some expect ->
    if expect <> consensus then
      violate t ~ts ~invariant:"ir-op-class" ~where:replica
        ~detail:
          (Printf.sprintf "operation %s executed as %s, expected %s" op
             (if consensus then "consensus" else "inconsistent")
             (if expect then "consensus" else "inconsistent"))

(* A follower-read snapshot must sit at or above the serving replica's
   watermark: GC keeps (at least) the newest committed version <= wm per
   key, so reads at snap >= wm are complete, while snap < wm may have
   lost the version the snapshot should observe. *)
let check_ro_wm t ~ts ~replica ~what ~snap ~wm =
  if vcmp snap wm < 0 then
    violate t ~ts ~invariant:"ro-snapshot-watermark" ~where:replica
      ~detail:
        (Printf.sprintf "%s at snapshot %s below the replica watermark %s"
           what (ver_str snap) (ver_str wm))

let check_ro_pin t ~ts ~replica ~snap ~wm ~staleness_us ~bound_us =
  check_ro_wm t ~ts ~replica ~what:"RO pin" ~snap ~wm;
  if staleness_us > bound_us then
    violate t ~ts ~invariant:"ro-staleness-bound" ~where:replica
      ~detail:
        (Printf.sprintf
           "RO snapshot %s served %d us stale, bound is %d us" (ver_str snap)
           staleness_us bound_us)

let observe t ~ts tr =
  if t.enabled then begin
    t.n_observed <- t.n_observed + 1;
    match tr with
    | Watermark { replica; wm } -> check_watermark t ~ts ~replica wm
    | Trunc_read { replica; key; served; newest } ->
      check_trunc_read t ~ts ~replica ~key ~served ~newest
    | Record_count { replica; count } -> check_records t ~ts ~replica count
    | Fast_path { ver; quorum; votes } -> check_fast_path t ~ts ~ver ~quorum votes
    | Read_serve { replica; key; reader; served } ->
      check_read_serve t ~ts ~replica ~key ~reader ~served
    | Commit_install { replica; key; ver } -> note_install t ~replica ~key ver
    | Gc_survivor { replica; key; newest; wm } ->
      check_gc_survivor t ~ts ~replica ~key ~newest ~wm
    | Lock_grant { replica; key; txn; mode; writer; readers } ->
      check_lock_grant t ~ts ~replica ~key ~txn ~mode ~writer ~readers
    | Ir_op { replica; op; consensus } -> check_ir_op t ~ts ~replica ~op ~consensus
    | Ro_pin { replica; snap; wm; staleness_us; bound_us } ->
      check_ro_pin t ~ts ~replica ~snap ~wm ~staleness_us ~bound_us
    | Ro_serve { replica; key; snap; wm } ->
      check_ro_wm t ~ts ~replica
        ~what:(Printf.sprintf "RO read of key %s" key)
        ~snap ~wm
  end

let note_kill t ~ts ~replica =
  if t.enabled then begin
    t.incidents <-
      { in_ts = ts; in_kind = "kill"; in_detail = replica } :: t.incidents;
    (* Fresh incarnation: catch-up from surviving peers may lawfully
       install less than the dead replica had, so per-replica tracking
       must restart from scratch. *)
    Hashtbl.remove t.wmarks replica;
    let stale =
      Hashtbl.fold
        (fun ((r, _) as k) _ acc -> if String.equal r replica then k :: acc else acc)
        t.maxcommit []
    in
    List.iter (Hashtbl.remove t.maxcommit) stale
  end

let violations t = List.rev t.violations
let n_violations t = t.n_violations
let n_observed t = t.n_observed
let incidents t = List.rev t.incidents

let register_views t f =
  if t.enabled then t.view_sources <- t.view_sources @ [ f ]

let views t = List.concat_map (fun f -> f ()) t.view_sources

(* The earliest moment anything went wrong — violation or kill — used
   to centre a post-mortem bundle's trace slice. *)
let first_incident_ts t =
  let min_opt a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (min a b)
  in
  let v =
    List.fold_left
      (fun acc vi -> min_opt acc (Some vi.vi_ts))
      None (violations t)
  in
  List.fold_left (fun acc i -> min_opt acc (Some i.in_ts)) v (incidents t)

let pp_violation ppf v =
  Format.fprintf ppf "[%d us] %s at %s: %s" v.vi_ts v.vi_invariant v.vi_where
    v.vi_detail
