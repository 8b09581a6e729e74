module Version = Cc_types.Version
module Rwset = Cc_types.Rwset
module Net = Simnet.Net
module Cpu = Simnet.Cpu
module Engine = Sim.Engine

let src_log = Logs.Src.create "morty.replica" ~doc:"Morty replica"

module Log = (val Logs.src_log src_log : Logs.LOG)

type exec_entry = {
  e_ver : Version.t;
  e_eid : int;
  mutable suspended : bool;  (** a Prepare is parked on a dependency *)
  mutable vote : Vote.t option;
  mutable vote_reason : Obs.Abort_reason.t option;
      (** classified cause of an abandon vote, replayed on resends *)
  mutable view : int;
  mutable fin_view : int;
  mutable fin_dec : Decision.t option;
  mutable decision : (Decision.t * bool) option;
  mutable read_set : Rwset.read_set;
  mutable write_set : Rwset.write_set;
}

type recovery = {
  r_eid : int;
  r_view : int;
  mutable r_replies : (Net.node * Msg.t) list;
  mutable r_done : bool;
}

type pending_finalize = {
  pf_decision : Decision.t;
  mutable pf_acks : int;
  mutable pf_fired : bool;
}

type stats = {
  mutable prepares : int;
  mutable commit_votes : int;
  mutable tentative_votes : int;
  mutable final_votes : int;
  mutable miss_notifications : int;
  mutable recoveries : int;
  mutable truncations : int;
  mutable state_transfer_msgs : int;
  mutable state_transfer_bytes : int;
  mutable catchups : int;
  mutable catchup_wait_us : int;
}

(* State of one amnesia-crash catch-up round: donors heard from so far,
   plus decisions that arrived mid-transfer and must replay once the
   transferred base state is installed. *)
type catchup = {
  mutable cu_from : Net.node list;
  mutable cu_buffer : (Net.node * Msg.t) list;  (* newest first *)
  cu_started_us : int;
}

type mode = Normal | Recovering of catchup

type t = {
  cfg : Config.t;
  engine : Engine.t;
  net : Msg.t Net.t;
  rng : Sim.Rng.t;
  index : int;
  node : Net.node;
  cores : int;
  cpu : Cpu.t;
  obs : Obs.Bus.t;
  mutable peers : int array;
  store : Mvstore.Vstore.t;
  erecord : (Version.t * int, exec_entry) Hashtbl.t;
  decision_log : (Version.t, [ `Commit | `Abort ]) Hashtbl.t;
  (* Prepares suspended on undecided dependencies: dep version ->
     thunks re-run when the dep's transaction-level decision lands. *)
  waiting : (Version.t, (unit -> unit) list ref) Hashtbl.t;
  (* Keys touched by each transaction's Puts at this replica, for
     abort-time cleanup. *)
  txn_keys : (Version.t, (string, unit) Hashtbl.t) Hashtbl.t;
  (* Keys on which each transaction has prepared or uncommitted-read
     state at this replica, so decisions clean up in O(own keys). *)
  prepared_keys : (Version.t, (string, unit) Hashtbl.t) Hashtbl.t;
  read_keys : (Version.t, (string, unit) Hashtbl.t) Hashtbl.t;
  max_eid : (Version.t, int) Hashtbl.t;
  recovering : (Version.t, recovery) Hashtbl.t;
  pending_fin : (Version.t * int * int, pending_finalize) Hashtbl.t;
  mutable watermark : Version.t option;
  (* Vote fence: the highest truncation cutoff this replica has donated a
     snapshot for (or acked a merge of).  Donating is a promise — the
     merge decides every below-cutoff execution from the snapshots, so a
     Commit vote issued after the snapshot would race the merged
     decision.  Below the fence only Abandon_final may be voted. *)
  mutable trunc_fence : Version.t option;
  (* Truncation coordinator state (replica 0 only). *)
  trunc_snapshots : (Version.t, (int * Msg.truncate_entry list) list ref) Hashtbl.t;
  trunc_acks : (Version.t, int ref) Hashtbl.t;
  trunc_merged : (Version.t, Msg.truncate_entry list) Hashtbl.t;
  stats : stats;
  (* Amnesia-crash lifecycle.  [stopped] marks a killed incarnation whose
     queued CPU jobs may still fire; [mode] is [Recovering] between a
     restart and the f+1-th catch-up reply. *)
  mutable stopped : bool;
  mutable mode : mode;
}

let node t = t.node
let cpu t = t.cpu
let stats t = t.stats
let watermark t = t.watermark

(* --- Observation ---------------------------------------------------------- *)

let mon_label t = Printf.sprintf "r%d" t.index
let emit t ev = Obs.Bus.emit t.obs ~ts:(Engine.now t.engine) ~pid:t.node ev
let observe t tr = emit t (Obs.Bus.State tr)

let observe_install t key ver =
  if Obs.Bus.monitoring t.obs then
    observe t
      (Obs.Monitor.Commit_install
         { replica = mon_label t; key; ver = Version.to_pair ver })

(* Contention on [key] while validating [ver]: a profiled conflict
   and/or abort blame, and the lineage record's aggressor and reason. *)
let blame t ver key ~conflict ~abort_key lineage =
  if Obs.Bus.on t.obs then
    emit t
      (Obs.Bus.Blame
         { ver = Version.to_pair ver; key; conflict; abort_key;
           lineage =
             Option.map (fun (v, reason) -> (Version.to_pair v, reason)) lineage })
let stop t = t.stopped <- true
let is_stopped t = t.stopped
let is_recovering t = match t.mode with Recovering _ -> true | Normal -> false

(* View stride for coordinator recovery (§4.3): views are partitioned so
   every replica proposes from a disjoint residue class and any recovery
   view strictly exceeds the view it supersedes.  The stride must exceed
   the replica count so [index + 1] never collides with the next block. *)
let recovery_view ~n_replicas ~cur_view ~index =
  let stride = max 2 (n_replicas + 1) in
  (((cur_view / stride) + 1) * stride) + index + 1
let set_peers t peers = t.peers <- peers
let load t pairs = Mvstore.Vstore.load t.store pairs
let decision_of t ver = Hashtbl.find_opt t.decision_log ver

let committed_value_at t key ver =
  match Mvstore.Vstore.find_existing t.store key with
  | None -> None
  | Some vr -> Mvstore.Vrecord.committed_value vr ver

let read_current t key =
  match Mvstore.Vstore.find_existing t.store key with
  | None -> None
  | Some vr ->
    let reply =
      Mvstore.Vrecord.latest_before vr (Version.make ~ts:max_int ~id:max_int)
    in
    if Version.is_zero reply.r_ver && String.equal reply.r_val "" then None
    else Some reply.r_val

let erecord_size t = Hashtbl.length t.erecord
let store_size t = Mvstore.Vstore.key_count t.store

let entry t ver eid =
  match Hashtbl.find_opt t.erecord (ver, eid) with
  | Some e -> e
  | None ->
    let e =
      { e_ver = ver; e_eid = eid; suspended = false; vote = None;
        vote_reason = None; view = 0; fin_view = -1; fin_dec = None;
        decision = None; read_set = []; write_set = [] }
    in
    Hashtbl.replace t.erecord (ver, eid) e;
    if Obs.Bus.monitoring t.obs then
      observe t
        (Obs.Monitor.Record_count
           { replica = mon_label t; count = Hashtbl.length t.erecord });
    (match Hashtbl.find_opt t.max_eid ver with
     | Some m when m >= eid -> ()
     | Some _ | None -> Hashtbl.replace t.max_eid ver eid);
    e

(* A killed incarnation must go silent even for CPU jobs queued before
   the kill: its node is reused by the fresh incarnation. *)
let send t dst msg = if not t.stopped then Net.send t.net ~src:t.node ~dst msg

let broadcast t msg = Array.iter (fun dst -> send t dst msg) t.peers

let add_to_keyset table ver key =
  let keys =
    match Hashtbl.find_opt table ver with
    | Some k -> k
    | None ->
      let k = Hashtbl.create 4 in
      Hashtbl.replace table ver k;
      k
  in
  Hashtbl.replace keys key ()

let touch_key t ver key = add_to_keyset t.txn_keys ver key

let iter_keyset table ver f =
  match Hashtbl.find_opt table ver with
  | None -> ()
  | Some keys -> Hashtbl.iter (fun key () -> f key) keys

(* --- Reads and writes ------------------------------------------------ *)

let handle_get t ~src ver key seq =
  let vr = Mvstore.Vstore.find t.store key in
  let reply =
    if t.cfg.eager_writes then Mvstore.Vrecord.latest_before vr ver
    else Mvstore.Vrecord.latest_committed_before vr ver
  in
  Mvstore.Vrecord.add_read vr ~reader:ver ~coord:src reply;
  add_to_keyset t.read_keys ver key;
  if Obs.Bus.monitoring t.obs then
    observe t
      (Obs.Monitor.Read_serve
         { replica = mon_label t; key; reader = Version.to_pair ver;
           served = Version.to_pair reply.r_ver });
  send t src
    (Msg.Get_reply
       { for_ver = ver; key; w_ver = reply.r_ver; value = reply.r_val; seq = Some seq })

(* Push an unsolicited corrected reply to a read and remember it as the
   read's most recent reply. *)
let notify_read t key (r : Mvstore.Vrecord.read) (reply : Mvstore.Vrecord.reply) =
  r.last <- reply;
  t.stats.miss_notifications <- t.stats.miss_notifications + 1;
  if Obs.Bus.monitoring t.obs then
    observe t
      (Obs.Monitor.Read_serve
         { replica = mon_label t; key; reader = Version.to_pair r.reader;
           served = Version.to_pair reply.r_ver });
  send t r.coord
    (Msg.Get_reply
       { for_ver = r.reader; key; w_ver = reply.r_ver; value = reply.r_val; seq = None })

let handle_put t ver key value =
  touch_key t ver key;
  let vr = Mvstore.Vstore.find t.store key in
  let missed = Mvstore.Vrecord.add_write vr ~ver value in
  (* Under eager visibility (Morty), reads that missed the new write are
     notified immediately; otherwise misses surface only when the write
     commits. *)
  if t.cfg.eager_writes then
    List.iter
      (fun (r : Mvstore.Vrecord.read) ->
        (* The new write is visible to this read only if it is the latest
           visible version below the reader. *)
        let fresh = Mvstore.Vrecord.latest_before vr r.reader in
        if Version.equal fresh.r_ver ver then notify_read t key r fresh)
      missed

(* --- Validation (§4.2) ----------------------------------------------- *)

type verdict = {
  v_vote : Vote.t;
  v_missed : (string * Version.t * string) list;
  v_reason : Obs.Abort_reason.t option;
}

let worse a b =
  match (a, b) with
  | Vote.Abandon_final, _ | _, Vote.Abandon_final -> Vote.Abandon_final
  | Vote.Abandon_tentative, _ | _, Vote.Abandon_tentative -> Vote.Abandon_tentative
  | Vote.Commit, Vote.Commit -> Vote.Commit

let truncated t ver =
  match t.watermark with
  | None -> false
  | Some w -> Version.compare ver w < 0

(* A version below the vote fence may be decided by an in-flight
   truncation merge, so this replica must not issue new Commit votes for
   it (reads of such versions are unaffected: nothing is GC'd until the
   round finishes). *)
let vote_fenced t ver =
  truncated t ver
  ||
  match t.trunc_fence with
  | None -> false
  | Some fence -> Version.compare ver fence < 0

let raise_fence t upto =
  match t.trunc_fence with
  | Some cur when Version.compare upto cur <= 0 -> ()
  | Some _ | None -> t.trunc_fence <- Some upto

let validate t ver (read_set : Rwset.read_set) (write_set : Rwset.write_set) =
  let vote = ref Vote.Commit in
  let missed = ref [] in
  let reason = ref None in
  let cause r =
    reason :=
      Some (match !reason with None -> r | Some r0 -> Obs.Abort_reason.prefer r0 r)
  in
  (* Check 4: nothing involved may be truncated.  A read below the
     watermark is still verifiable when it is the key's newest committed
     write — [gc_below] retains exactly that version, and check 3
     exact-matches it — so only stale truncated reads (whose
     interleaving history is gone) force Abandon.  Without this carve-out
     any commit gap longer than the truncation interval (an amnesia
     episode, a quiet key) would brick the key forever: its current
     version ages below the advancing watermark and every reader
     abandons. *)
  if vote_fenced t ver then begin
    vote := Vote.Abandon_final;
    cause Obs.Abort_reason.Watermark_abandon
  end;
  List.iter
    (fun (r : Rwset.read) ->
      if (not (Version.is_zero r.r_ver)) && truncated t r.r_ver then
        let vr = Mvstore.Vstore.find t.store r.key in
        let newest = Mvstore.Vrecord.newest_committed vr in
        let is_current =
          match newest with
          | Some newest -> Version.equal newest r.r_ver
          | None -> false
        in
        if not is_current then begin
          vote := Vote.Abandon_final;
          cause Obs.Abort_reason.Watermark_abandon;
          blame t ver r.key ~conflict:false ~abort_key:false
            (Some (Version.zero, "watermark-abandon"))
        end
        else if Obs.Bus.monitoring t.obs then
          (* Truncation-safety carve-out taken: the monitor re-checks
             that the accepted below-watermark read really names the
             newest committed write. *)
          match newest with
          | Some n ->
            observe t
              (Obs.Monitor.Trunc_read
                 { replica = mon_label t; key = r.key;
                   served = Version.to_pair r.r_ver;
                   newest = Version.to_pair n })
          | None -> ())
    read_set;
  (* Check 3: dirty reads — every read must match a committed write
     exactly (dependencies are committed by the time we validate). *)
  List.iter
    (fun (r : Rwset.read) ->
      let vr = Mvstore.Vstore.find t.store r.key in
      let committed_val = Mvstore.Vrecord.committed_value vr r.r_ver in
      let ok =
        match committed_val with
        | Some v -> String.equal v r.r_val
        | None -> Version.is_zero r.r_ver && String.equal r.r_val ""
      in
      if not ok then begin
        vote := Vote.Abandon_final;
        cause Obs.Abort_reason.Validation_fail;
        blame t ver r.key ~conflict:true ~abort_key:true
          (Some (r.r_ver, "validation-fail"))
      end)
    read_set;
  (* Check 1: did our reads miss any writes? *)
  List.iter
    (fun (r : Rwset.read) ->
      let vr = Mvstore.Vstore.find t.store r.key in
      match Mvstore.Vrecord.write_missed_by_read vr ~reader:ver ~r_ver:r.r_ver with
      | Mvstore.Vrecord.No_miss -> ()
      | Mvstore.Vrecord.Missed_committed m ->
        vote := worse !vote Vote.Abandon_final;
        cause Obs.Abort_reason.Missed_write;
        blame t ver r.key ~conflict:true ~abort_key:true
          (Some (m.r_ver, "missed-write"));
        missed := (r.key, m.r_ver, m.r_val) :: !missed
      | Mvstore.Vrecord.Missed_uncommitted m ->
        vote := worse !vote Vote.Abandon_tentative;
        cause Obs.Abort_reason.Missed_write;
        blame t ver r.key ~conflict:true ~abort_key:false
          (Some (m.r_ver, "missed-write"));
        missed := (r.key, m.r_ver, m.r_val) :: !missed)
    read_set;
  (* Check 2: did other transactions' validated reads miss our writes? *)
  List.iter
    (fun (w : Rwset.write) ->
      let vr = Mvstore.Vstore.find t.store w.key in
      if Mvstore.Vrecord.committed_read_missing_write vr ~w_ver:ver then begin
        vote := worse !vote Vote.Abandon_final;
        cause Obs.Abort_reason.Missed_write;
        blame t ver w.key ~conflict:true ~abort_key:true
          (Some (Version.zero, "missed-write"))
      end
      else if Mvstore.Vrecord.prepared_read_missing_write vr ~w_ver:ver then begin
        vote := worse !vote Vote.Abandon_tentative;
        cause Obs.Abort_reason.Missed_write;
        blame t ver w.key ~conflict:true ~abort_key:false None
      end)
    write_set;
  { v_vote = !vote; v_missed = !missed; v_reason = !reason }

let record_vote_stat t = function
  | Vote.Commit -> t.stats.commit_votes <- t.stats.commit_votes + 1
  | Vote.Abandon_tentative -> t.stats.tentative_votes <- t.stats.tentative_votes + 1
  | Vote.Abandon_final -> t.stats.final_votes <- t.stats.final_votes + 1

let rec process_prepare t ~src ver eid (read_set : Rwset.read_set) write_set =
  let e = entry t ver eid in
  e.read_set <- read_set;
  e.write_set <- write_set;
  match (e.decision, e.vote) with
  | Some (d, _), _ ->
    let vote, reason =
      match d with
      | Decision.Commit -> (Vote.Commit, None)
      | Decision.Abandon ->
        (* A cached execution-level Abandon means another coordinator
           (recovery, §4.3) already finalized against this eid. *)
        (Vote.Abandon_final, Some Obs.Abort_reason.Recovery_stall)
    in
    send t src (Msg.Prepare_reply { ver; eid; vote; missed = []; reason })
  | None, Some v ->
    send t src
      (Msg.Prepare_reply { ver; eid; vote = v; missed = []; reason = e.vote_reason })
  | None, None ->
    (* Transaction already decided at transaction level? *)
    (match Hashtbl.find_opt t.decision_log ver with
     | Some `Abort ->
       e.vote <- Some Vote.Abandon_final;
       e.vote_reason <- Some Obs.Abort_reason.Recovery_stall;
       record_vote_stat t Vote.Abandon_final;
       send t src
         (Msg.Prepare_reply
            { ver; eid; vote = Vote.Abandon_final; missed = [];
              reason = Some Obs.Abort_reason.Recovery_stall })
     | Some `Commit | None ->
       (* Read-validity wait: every non-initial dependency must have a
          transaction-level decision before we validate. *)
       let aborted_dep =
         List.exists
           (fun (r : Rwset.read) ->
             (not (Version.is_zero r.r_ver))
             && Hashtbl.find_opt t.decision_log r.r_ver = Some `Abort)
           read_set
       in
       if aborted_dep then begin
         e.vote <- Some Vote.Abandon_final;
         e.vote_reason <- Some Obs.Abort_reason.Validation_fail;
         record_vote_stat t Vote.Abandon_final;
         send t src
           (Msg.Prepare_reply
              { ver; eid; vote = Vote.Abandon_final; missed = [];
                reason = Some Obs.Abort_reason.Validation_fail })
       end
       else
         let undecided =
           List.filter
             (fun (r : Rwset.read) ->
               (not (Version.is_zero r.r_ver))
               && not (Hashtbl.mem t.decision_log r.r_ver))
             read_set
         in
         (match undecided with
          | [] ->
            e.suspended <- false;
            let { v_vote; v_missed; v_reason } = validate t ver read_set write_set in
            if Vote.equal v_vote Vote.Commit then begin
              List.iter
                (fun (r : Rwset.read) ->
                  let vr = Mvstore.Vstore.find t.store r.key in
                  add_to_keyset t.prepared_keys ver r.key;
                  Mvstore.Vrecord.prepare_read vr ~reader:ver ~eid ~r_ver:r.r_ver)
                read_set;
              List.iter
                (fun (w : Rwset.write) ->
                  let vr = Mvstore.Vstore.find t.store w.key in
                  add_to_keyset t.prepared_keys ver w.key;
                  Mvstore.Vrecord.prepare_write vr ~ver ~eid)
                write_set
            end;
            e.vote <- Some v_vote;
            e.vote_reason <- v_reason;
            t.stats.prepares <- t.stats.prepares + 1;
            record_vote_stat t v_vote;
            send t src
              (Msg.Prepare_reply
                 { ver; eid; vote = v_vote; missed = v_missed; reason = v_reason })
          | dep :: _ ->
            if e.suspended then ()
            else begin
            e.suspended <- true;
            blame t ver dep.key ~conflict:true ~abort_key:false None;
            let dep_ver = dep.r_ver in
            let thunks =
              match Hashtbl.find_opt t.waiting dep_ver with
              | Some l -> l
              | None ->
                let l = ref [] in
                Hashtbl.replace t.waiting dep_ver l;
                l
            in
            thunks :=
              (fun () ->
                e.suspended <- false;
                process_prepare t ~src ver eid read_set write_set)
              :: !thunks;
            (* If the dependency's coordinator died, recover it. *)
            ignore
              (Engine.schedule t.engine ~after:t.cfg.dep_recovery_timeout_us (fun () ->
                   if not (Hashtbl.mem t.decision_log dep_ver) then
                     start_recovery t dep_ver))
            end))

(* --- Decide ----------------------------------------------------------- *)

and wake_waiters t ver =
  match Hashtbl.find_opt t.waiting ver with
  | None -> ()
  | Some thunks ->
    Hashtbl.remove t.waiting ver;
    List.iter (fun f -> f ()) (List.rev !thunks)

and apply_commit t ver eid (read_set : Rwset.read_set) (write_set : Rwset.write_set) =
  Hashtbl.replace t.decision_log ver `Commit;
  (* Install committed writes; correct readers that observed a value this
     transaction did not end up committing. *)
  List.iter
    (fun (w : Rwset.write) ->
      let vr = Mvstore.Vstore.find t.store w.key in
      Mvstore.Vrecord.commit_write vr ~ver w.w_val;
      observe_install t w.key ver;
      List.iter
        (fun (r : Mvstore.Vrecord.read) ->
          if not (String.equal r.last.r_val w.w_val) then
            notify_read t w.key r { r_ver = ver; r_val = w.w_val })
        (Mvstore.Vrecord.reads_observing vr ver);
      if not t.cfg.eager_writes then
        (* Commit-time miss detection (TheDB/MV3C-style ablation). *)
        List.iter
          (fun (r : Mvstore.Vrecord.read) ->
            let fresh = Mvstore.Vrecord.latest_committed_before vr r.reader in
            if Version.equal fresh.r_ver ver then notify_read t w.key r fresh)
          (Mvstore.Vrecord.reads_missing_version vr ~ver w.w_val))
    write_set;
  (* Writes from abandoned executions on keys the committed execution did
     not write: retract them and refresh observers. *)
  (match Hashtbl.find_opt t.txn_keys ver with
   | None -> ()
   | Some keys ->
     Hashtbl.iter
       (fun key () ->
         if Rwset.write_of_key write_set key = None then begin
           match Mvstore.Vstore.find_existing t.store key with
           | None -> ()
           | Some vr ->
             Mvstore.Vrecord.abort_writes vr ~ver;
             List.iter
               (fun (r : Mvstore.Vrecord.read) ->
                 notify_read t key r (Mvstore.Vrecord.latest_before vr r.reader))
               (Mvstore.Vrecord.reads_observing vr ver)
         end)
       keys;
     Hashtbl.remove t.txn_keys ver);
  List.iter
    (fun (r : Rwset.read) ->
      let vr = Mvstore.Vstore.find t.store r.key in
      Mvstore.Vrecord.commit_read vr ~reader:ver ~r_ver:r.r_ver)
    read_set;
  (* Drop prepared state of other executions of this transaction. *)
  iter_keyset t.prepared_keys ver (fun key ->
      match Mvstore.Vstore.find_existing t.store key with
      | None -> ()
      | Some vr -> Mvstore.Vrecord.unprepare_all vr ~ver);
  Hashtbl.remove t.prepared_keys ver;
  (* The transaction is decided: its uncommitted reads are obsolete. *)
  iter_keyset t.read_keys ver (fun key ->
      match Mvstore.Vstore.find_existing t.store key with
      | None -> ()
      | Some vr -> Mvstore.Vrecord.remove_read vr ver);
  Hashtbl.remove t.read_keys ver;
  ignore eid;
  wake_waiters t ver

and apply_abort t ver =
  Hashtbl.replace t.decision_log ver `Abort;
  (match Hashtbl.find_opt t.txn_keys ver with
   | None -> ()
   | Some keys ->
     Hashtbl.iter
       (fun key () ->
         match Mvstore.Vstore.find_existing t.store key with
         | None -> ()
         | Some vr ->
           Mvstore.Vrecord.abort_writes vr ~ver;
           (* §4.2 Decide: generate new GetReplies for all reads that
              observed the aborted transaction's writes. *)
           List.iter
             (fun (r : Mvstore.Vrecord.read) ->
               notify_read t key r (Mvstore.Vrecord.latest_before vr r.reader))
             (Mvstore.Vrecord.reads_observing vr ver))
       keys;
     Hashtbl.remove t.txn_keys ver);
  iter_keyset t.prepared_keys ver (fun key ->
      match Mvstore.Vstore.find_existing t.store key with
      | None -> ()
      | Some vr -> Mvstore.Vrecord.unprepare_all vr ~ver);
  Hashtbl.remove t.prepared_keys ver;
  iter_keyset t.read_keys ver (fun key ->
      match Mvstore.Vstore.find_existing t.store key with
      | None -> ()
      | Some vr -> Mvstore.Vrecord.remove_read vr ver);
  Hashtbl.remove t.read_keys ver;
  wake_waiters t ver

and apply_abandon t ver eid =
  (* Abandon one execution: unprepare it, keep reads/writes (later
     executions of the transaction continue). *)
  iter_keyset t.prepared_keys ver (fun key ->
      match Mvstore.Vstore.find_existing t.store key with
      | None -> ()
      | Some vr -> Mvstore.Vrecord.unprepare vr ~ver ~eid)

and handle_decide t ver eid decision abort read_set write_set =
  let e = entry t ver eid in
  (match e.decision with
   | Some _ -> ()
   | None ->
     e.decision <- Some (decision, abort);
     (match decision with
      | Decision.Commit ->
        if not (Hashtbl.mem t.decision_log ver) then
          apply_commit t ver eid read_set write_set
      | Decision.Abandon ->
        apply_abandon t ver eid;
        if abort && not (Hashtbl.mem t.decision_log ver) then apply_abort t ver))

(* --- Finalize (write-once register) ----------------------------------- *)

and handle_finalize t ~src ver eid view decision =
  let e = entry t ver eid in
  if view >= e.view then begin
    e.view <- view;
    e.fin_view <- view;
    e.fin_dec <- Some decision;
    (* A durably abandoned execution releases its prepared state so the
       coordinator's re-execution can proceed (§4.2, Commit &
       Re-Execution). *)
    if Decision.equal decision Decision.Abandon then apply_abandon t ver eid;
    send t src (Msg.Finalize_reply { ver; eid; view; accepted = true })
  end
  else send t src (Msg.Finalize_reply { ver; eid; view = e.view; accepted = false })

(* --- Coordinator recovery (§4.3) --------------------------------------- *)

and start_recovery t ver =
  if Hashtbl.mem t.recovering ver || Hashtbl.mem t.decision_log ver then ()
  else begin
    let eid = match Hashtbl.find_opt t.max_eid ver with Some e -> e | None -> 0 in
    let cur_view =
      match Hashtbl.find_opt t.erecord (ver, eid) with Some e -> e.view | None -> 0
    in
    let view =
      recovery_view ~n_replicas:(Config.n_replicas t.cfg) ~cur_view ~index:t.index
    in
    t.stats.recoveries <- t.stats.recoveries + 1;
    Log.debug (fun m ->
        m "replica %d recovering %a eid %d in view %d" t.index Version.pp ver eid view);
    Hashtbl.replace t.recovering ver { r_eid = eid; r_view = view; r_replies = []; r_done = false };
    broadcast t (Msg.Paxos_prepare { ver; eid; view })
  end

and handle_paxos_prepare t ~src ver eid view =
  let e = entry t ver eid in
  if view > e.view then e.view <- view;
  let ok = e.view = view in
  send t src
    (Msg.Paxos_prepare_reply
       {
         ver; eid; view = e.view; ok;
         vote = e.vote;
         fin = (match e.fin_dec with Some d -> Some (e.fin_view, d) | None -> None);
         decided = (match e.decision with Some (d, a) -> Some (d, a) | None -> None);
         read_set = e.read_set;
         write_set = e.write_set;
       })

and handle_paxos_prepare_reply t ~src (msg : Msg.t) =
  match msg with
  | Msg.Paxos_prepare_reply r -> begin
    match Hashtbl.find_opt t.recovering r.ver with
    | None -> ()
    | Some rec_st when rec_st.r_done || rec_st.r_eid <> r.eid -> ()
    | Some rec_st ->
      if not r.ok then begin
        (* A higher view exists: back off and retry later. *)
        rec_st.r_done <- true;
        Hashtbl.remove t.recovering r.ver;
        let delay = t.cfg.dep_recovery_timeout_us + Sim.Rng.int t.rng 100_000 in
        ignore
          (Engine.schedule t.engine ~after:delay (fun () ->
               if not (Hashtbl.mem t.decision_log r.ver) then start_recovery t r.ver))
      end
      else begin
        rec_st.r_replies <- (src, msg) :: rec_st.r_replies;
        if List.length rec_st.r_replies >= t.cfg.f + 1 then begin
          rec_st.r_done <- true;
          Hashtbl.remove t.recovering r.ver;
          finish_recovery t r.ver rec_st.r_eid rec_st.r_view rec_st.r_replies
        end
      end
  end
  | _ -> ()

and finish_recovery t ver eid view replies =
  (* Any learned decision wins; otherwise the finalize decision from the
     highest view; otherwise aggregate the f+1 votes (Table 1, forced). *)
  let decided = ref None in
  let best_fin = ref None in
  let votes = ref [] in
  let sets = ref ([], []) in
  List.iter
    (fun (_, m) ->
      match m with
      | Msg.Paxos_prepare_reply r ->
        (match r.decided with
         | Some (d, a) -> decided := Some (d, a, r.read_set, r.write_set)
         | None -> ());
        (match r.fin with
         | Some (fv, fd) ->
           (match !best_fin with
            | Some (bv, _) when bv >= fv -> ()
            | Some _ | None -> best_fin := Some (fv, fd))
         | None -> ());
        (match r.vote with Some v -> votes := v :: !votes | None -> ());
        if r.read_set <> [] || r.write_set <> [] then sets := (r.read_set, r.write_set)
      | _ -> ())
    replies;
  let read_set, write_set = !sets in
  match !decided with
  | Some (d, a, rs', ws') ->
    broadcast t
      (Msg.Decide { ver; eid; decision = d; abort = a; read_set = rs'; write_set = ws' })
  | None ->
    let proposal =
      match !best_fin with
      | Some (_, fd) -> fd
      | None -> (
        match Vote.aggregate ~f:t.cfg.f ~force:true !votes with
        | Vote.Commit_fast | Vote.Commit_slow -> Decision.Commit
        | Vote.Abandon_fast | Vote.Abandon_slow | Vote.Undecided -> Decision.Abandon)
    in
    let key = (ver, eid, view) in
    Hashtbl.replace t.pending_fin key
      { pf_decision = proposal; pf_acks = 0; pf_fired = false };
    (* Remember the sets so the eventual Decide is self-contained. *)
    let e = entry t ver eid in
    if e.read_set = [] then e.read_set <- read_set;
    if e.write_set = [] then e.write_set <- write_set;
    broadcast t (Msg.Finalize { ver; eid; view; decision = proposal })

and handle_finalize_reply t ver eid view accepted =
  match Hashtbl.find_opt t.pending_fin (ver, eid, view) with
  | None -> ()
  | Some pf ->
    if accepted then begin
      pf.pf_acks <- pf.pf_acks + 1;
      if pf.pf_acks >= t.cfg.f + 1 && not pf.pf_fired then begin
        pf.pf_fired <- true;
        Hashtbl.remove t.pending_fin (ver, eid, view);
        let e = entry t ver eid in
        let abort = Decision.equal pf.pf_decision Decision.Abandon in
        broadcast t
          (Msg.Decide
             {
               ver; eid; decision = pf.pf_decision; abort;
               read_set = e.read_set; write_set = e.write_set;
             })
      end
    end

(* --- Truncation (§4.4) -------------------------------------------------- *)

and snapshot_below t upto =
  Hashtbl.fold
    (fun (ver, eid) (e : exec_entry) acc ->
      if Version.compare ver upto < 0 then
        {
          Msg.t_ver = ver;
          t_eid = eid;
          t_vote = e.vote;
          t_fin = (match e.fin_dec with Some d -> Some (e.fin_view, d) | None -> None);
          t_decision = (match e.decision with Some (d, _) -> Some d | None -> None);
          t_write_set = e.write_set;
          t_read_set = e.read_set;
        }
        :: acc
      else acc)
    t.erecord []

and handle_truncate t ~src upto entries =
  (* Coordinator role (replica 0): merge snapshots once f+1 arrive. *)
  if t.index <> 0 then ()
  else begin
    let snaps =
      match Hashtbl.find_opt t.trunc_snapshots upto with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace t.trunc_snapshots upto l;
        l
    in
    if not (List.mem_assoc src !snaps) then snaps := (src, entries) :: !snaps;
    if List.length !snaps >= t.cfg.f + 1 && not (Hashtbl.mem t.trunc_merged upto)
    then begin
      let merged, m_upto = merge_snapshots t upto (List.map snd !snaps) in
      Hashtbl.remove t.trunc_snapshots upto;
      Hashtbl.replace t.trunc_acks m_upto (ref 0);
      Hashtbl.replace t.trunc_merged m_upto merged;
      broadcast t (Msg.Propose_merge { t_upto = m_upto; t_view = 0; merged })
    end
  end

and merge_snapshots _t upto snapshots =
  (* Preserve any decision that was actually reached: learned decision >
     finalize decision at the highest view.  An execution with neither —
     votes only — is still the coordinator's call, and the donor
     snapshots cannot make it for him: any commit quorum intersects the
     f+1 fenced donors in at least one replica, but the one Commit vote
     that intersection guarantees is not a quorum, so force-deciding
     from the visible votes can contradict a concurrent slow-path commit
     built from pre-fence votes (or, symmetrically, a coordinator
     abandon of an execution the donors saw Commit votes for).  Instead
     the round truncates below the oldest such execution and leaves it
     live; once the coordinator's Decide lands, a later round picks it
     up.  The donor fence stays at the original cutoff, so no commit
     quorum can form that a future round's snapshots will not see. *)
  let table = Hashtbl.create 64 in
  List.iter
    (fun entries ->
      List.iter
        (fun (e : Msg.truncate_entry) ->
          let key = (e.t_ver, e.t_eid) in
          let cur = try Hashtbl.find table key with Not_found -> [] in
          Hashtbl.replace table key (e :: cur))
        entries)
    snapshots;
  let decided_of entries =
    List.find_map (fun (e : Msg.truncate_entry) -> e.t_decision) entries
  in
  let best_fin_of entries =
    List.fold_left
      (fun acc (e : Msg.truncate_entry) ->
        match (acc, e.t_fin) with
        | None, f -> f
        | Some (av, _), Some (fv, fd) when fv > av -> Some (fv, fd)
        | some, _ -> some)
      None entries
  in
  let m_upto =
    Hashtbl.fold
      (fun (ver, _eid) entries acc ->
        if decided_of entries = None && best_fin_of entries = None then begin
          (* Floor to the sentinel id so the cutoff keeps the shape the
             snapshot order relies on: RO pins use negative ids above
             [min_int], so a watermark must never carry a real
             (non-negative) id. *)
          let floor = Version.make ~ts:ver.Version.ts ~id:min_int in
          if Version.compare floor acc < 0 then floor else acc
        end
        else acc)
      table upto
  in
  Hashtbl.fold
    (fun (ver, eid) entries acc ->
      if Version.compare ver m_upto >= 0 then acc
      else begin
      let decided = decided_of entries in
      let best_fin = best_fin_of entries in
      let decision =
        match (decided, best_fin) with
        | Some d, _ -> d
        | None, Some (_, fd) -> fd
        | None, None ->
          (* Unreachable: an undecided execution lowered [m_upto] below
             its own version. *)
          assert false
      in
      let sets =
        List.find_map
          (fun (e : Msg.truncate_entry) ->
            if e.t_write_set <> [] || e.t_read_set <> [] then
              Some (e.t_read_set, e.t_write_set)
            else None)
          entries
      in
      let read_set, write_set = match sets with Some s -> s | None -> ([], []) in
      {
        Msg.t_ver = ver;
        t_eid = eid;
        t_vote = None;
        t_fin = None;
        t_decision = Some decision;
        t_read_set = read_set;
        t_write_set = write_set;
      }
      :: acc
      end)
    table [],
  m_upto

and handle_propose_merge t ~src upto view merged =
  ignore merged;
  (* Acking a merge is the same promise as donating a snapshot: the
     round will decide every execution below [upto], so stop voting
     Commit on them.  This also fences non-donor replicas, whose votes
     the merge never saw. *)
  raise_fence t upto;
  send t src (Msg.Propose_merge_reply { t_upto = upto; t_view = view })

and handle_propose_merge_reply t upto _view =
  if t.index <> 0 then ()
  else
    match Hashtbl.find_opt t.trunc_acks upto with
    | None -> ()
    | Some acks ->
      incr acks;
      if !acks >= t.cfg.f + 1 then begin
        Hashtbl.remove t.trunc_acks upto;
        match Hashtbl.find_opt t.trunc_merged upto with
        | None -> ()
        | Some merged ->
          Hashtbl.remove t.trunc_merged upto;
          broadcast t (Msg.Truncation_finished { t_upto = upto; merged })
      end

and handle_truncation_finished t upto merged =
  t.stats.truncations <- t.stats.truncations + 1;
  (* Install the watermark (monotonically) BEFORE applying the merged
     decisions.  Applying a dependency's decision wakes suspended
     prepares of other below-cutoff executions, and those validations
     must already see the watermark: otherwise a woken prepare can vote
     Commit for an execution whose merged Abandon sits later in this
     very list, and the coordinator commits a transaction the round
     abandoned.  Monotone because a stale round replayed from the
     catch-up buffer must not regress a watermark the state transfer
     already installed. *)
  let advanced =
    match t.watermark with
    | Some cur -> Version.compare upto cur > 0
    | None -> true
  in
  if advanced then begin
    if Obs.Bus.monitoring t.obs then
      observe t
        (Obs.Monitor.Watermark { replica = mon_label t; wm = Version.to_pair upto });
    t.watermark <- Some upto
  end;
  raise_fence t upto;
  (* Apply merged decisions for executions we have not decided locally. *)
  List.iter
    (fun (e : Msg.truncate_entry) ->
      match e.t_decision with
      | Some d ->
        let abort = Decision.equal d Decision.Abandon in
        handle_decide t e.t_ver e.t_eid d abort e.t_read_set e.t_write_set
      | None -> ())
    merged;
  (* Garbage collect: erecord entries and committed metadata below the
     watermark. *)
  let stale =
    Hashtbl.fold
      (fun (ver, eid) _ acc ->
        if Version.compare ver upto < 0 then (ver, eid) :: acc else acc)
      t.erecord []
  in
  List.iter (fun k -> Hashtbl.remove t.erecord k) stale;
  Mvstore.Vstore.iter t.store (fun _ vr -> Mvstore.Vrecord.gc_below vr upto);
  if Obs.Bus.monitoring t.obs then
    (* Store-version monotonicity across GC: truncation must retain each
       key's newest committed write. *)
    Mvstore.Vstore.iter t.store (fun key vr ->
        observe t
          (Obs.Monitor.Gc_survivor
             { replica = mon_label t; key;
               newest =
                 Option.map Version.to_pair (Mvstore.Vrecord.newest_committed vr);
               wm = Version.to_pair upto }))

(* --- Follower reads (watermark snapshots) ------------------------------- *)

(* The truncation watermark is the only snapshot a replica can certify:
   complete (every commit below it was applied by the round that
   installed it) and GC-safe ([gc_below wm] keeps each key's newest
   committed version at or below wm, which is exactly what
   [latest_committed_before snap] needs for any snap >= wm).  A replica
   with no watermark yet has nothing certifiable to offer. *)
let handle_ro_pin t ~src ro_id =
  send t src (Msg.Ro_pin_reply { ro_id; wm = t.watermark })

(* Serve iff the pinned snapshot is still at or above our current
   watermark; once truncation GC overtakes it, versions the snapshot
   must observe may be gone, so the client re-pins at the new
   watermark. *)
let handle_ro_get t ~src snap key seq ro_id =
  match t.watermark with
  | Some wm when Version.compare snap wm >= 0 ->
    let vr = Mvstore.Vstore.find t.store key in
    let reply = Mvstore.Vrecord.latest_committed_before vr snap in
    if Obs.Bus.monitoring t.obs then
      observe t
        (Obs.Monitor.Ro_serve
           { replica = mon_label t; key; snap = Version.to_pair snap;
             wm = Version.to_pair wm });
    send t src
      (Msg.Get_reply
         { for_ver = snap; key; w_ver = reply.r_ver; value = reply.r_val;
           seq = Some seq })
  | Some _ | None -> send t src (Msg.Ro_stale { ro_id })

(* --- Amnesia-crash catch-up (state transfer) ---------------------------- *)

let max_version = Version.make ~ts:max_int ~id:max_int

(* Rough wire-size estimate of a catch-up reply, for the state-transfer
   byte counters (the simulator has no real serialization). *)
let catchup_reply_bytes decisions store erecord =
  let b = ref (16 * List.length decisions) in
  List.iter
    (fun (s : Msg.store_entry) ->
      b :=
        !b + String.length s.s_key
        + List.fold_left (fun a (_, v) -> a + 16 + String.length v) 0 s.s_versions
        + (32 * List.length s.s_creads))
    store;
  List.iter
    (fun (e : Msg.truncate_entry) ->
      b :=
        !b + 48
        + List.fold_left
            (fun a (r : Rwset.read) ->
              a + String.length r.key + String.length r.r_val + 16)
            0 e.t_read_set
        + List.fold_left
            (fun a (w : Rwset.write) -> a + String.length w.key + String.length w.w_val)
            0 e.t_write_set)
    erecord;
  !b

(* Donor side: ship the decision log, all committed per-key state, the
   full erecord (as a truncation-style snapshot) and the watermark.
   Prepared/uncommitted state is deliberately not transferred: losing it
   only weakens Abandon_tentative votes, and the committed-state checks
   re-validate every future Prepare. *)
let handle_catchup_request t ~src =
  if src <> t.node then begin
    let decisions =
      Hashtbl.fold (fun ver d acc -> (ver, d = `Commit) :: acc) t.decision_log []
    in
    let store = ref [] in
    Mvstore.Vstore.iter t.store (fun key vr ->
        let s_versions = Mvstore.Vrecord.committed_writes_list vr in
        let s_creads = Mvstore.Vrecord.committed_reads_list vr in
        if s_versions <> [] || s_creads <> [] then
          store := { Msg.s_key = key; s_versions; s_creads } :: !store);
    let erecord = snapshot_below t max_version in
    t.stats.state_transfer_msgs <- t.stats.state_transfer_msgs + 1;
    t.stats.state_transfer_bytes <-
      t.stats.state_transfer_bytes + catchup_reply_bytes decisions !store erecord;
    send t src
      (Msg.Catchup_reply
         { cu_watermark = t.watermark; cu_decisions = decisions;
           cu_store = !store; cu_erecord = erecord })
  end

(* Receiver side: a monotone merge — decision-log union (Commit wins: a
   Commit anywhere means the transaction durably committed), committed
   write/read union, erecord fill-in, watermark max.  Monotonicity makes
   stale replies from a previous incarnation harmless. *)
let absorb_catchup t ~src cu watermark decisions store erecord =
  if not (List.mem src cu.cu_from) then begin
    cu.cu_from <- src :: cu.cu_from;
    List.iter
      (fun (ver, committed) ->
        match (Hashtbl.find_opt t.decision_log ver, committed) with
        | Some `Commit, _ | Some `Abort, false -> ()
        | (Some `Abort | None), true -> Hashtbl.replace t.decision_log ver `Commit
        | None, false -> Hashtbl.replace t.decision_log ver `Abort)
      decisions;
    List.iter
      (fun (s : Msg.store_entry) ->
        let vr = Mvstore.Vstore.find t.store s.s_key in
        List.iter
          (fun (ver, value) ->
            Mvstore.Vrecord.commit_write vr ~ver value;
            observe_install t s.s_key ver)
          s.s_versions;
        List.iter
          (fun (reader, r_ver) -> Mvstore.Vrecord.commit_read vr ~reader ~r_ver)
          s.s_creads)
      store;
    List.iter
      (fun (te : Msg.truncate_entry) ->
        let e = entry t te.Msg.t_ver te.Msg.t_eid in
        (match (e.vote, te.Msg.t_vote) with
         | None, Some v -> e.vote <- Some v
         | _ -> ());
        (match te.Msg.t_fin with
         | Some (fv, fd) when fv > e.fin_view ->
           e.fin_view <- fv;
           e.fin_dec <- Some fd;
           if fv > e.view then e.view <- fv
         | _ -> ());
        (match (e.decision, te.Msg.t_decision) with
         | None, Some d ->
           let abort =
             Decision.equal d Decision.Abandon
             && Hashtbl.find_opt t.decision_log te.Msg.t_ver = Some `Abort
           in
           e.decision <- Some (d, abort)
         | _ -> ());
        if e.read_set = [] then e.read_set <- te.Msg.t_read_set;
        if e.write_set = [] then e.write_set <- te.Msg.t_write_set)
      erecord;
    match watermark with
    | Some w
      when (match t.watermark with
            | Some cur -> Version.compare w cur > 0
            | None -> true) ->
      if Obs.Bus.monitoring t.obs then
        observe t
          (Obs.Monitor.Watermark { replica = mon_label t; wm = Version.to_pair w });
      t.watermark <- Some w
    | _ -> ()
  end

let finish_catchup t cu =
  t.mode <- Normal;
  t.stats.catchups <- t.stats.catchups + 1;
  t.stats.catchup_wait_us <-
    t.stats.catchup_wait_us + (Engine.now t.engine - cu.cu_started_us);
  Log.debug (fun m ->
      m "replica %d caught up from %d donors" t.index (List.length cu.cu_from));
  let buffered = List.rev cu.cu_buffer in
  cu.cu_buffer <- [];
  List.iter
    (fun (_src, msg) ->
      match msg with
      | Msg.Decide { ver; eid; decision; abort; read_set; write_set } ->
        handle_decide t ver eid decision abort read_set write_set
      | Msg.Truncation_finished { t_upto; merged } ->
        handle_truncation_finished t t_upto merged
      | _ -> ())
    buffered

let handle_recovering t ~src cu msg =
  match msg with
  | Msg.Catchup_reply { cu_watermark; cu_decisions; cu_store; cu_erecord } ->
    absorb_catchup t ~src cu cu_watermark cu_decisions cu_store cu_erecord;
    if List.length cu.cu_from >= t.cfg.f + 1 then finish_catchup t cu
  | Msg.Decide _ | Msg.Truncation_finished _ ->
    (* Buffer and replay after the base state is installed; the decision
       merge is idempotent so ordering does not matter. *)
    cu.cu_buffer <- (src, msg) :: cu.cu_buffer
  | _ ->
    (* While recovering this replica answers nothing: no Prepare, Get,
       Put, Finalize, Paxos_prepare, or truncation traffic.  A quorum
       (fast-path 2f+1, forced f+1, truncation-merge f+1) must never
       count an amnesiac replica's empty state as a vote, and a
       recovering replica must not donate state it does not have. *)
    ()

(* --- Dispatch ----------------------------------------------------------- *)

(* Follower-side apply work for a Decide's committed writes, divided
   across [apply_partitions] key-partitions applied in parallel (capped
   at the core count).  With the default [apply_cost_per_write_us = 0]
   this is exactly zero and Decide costs what it always did. *)
let apply_cost t (write_set : Rwset.write_set) =
  if t.cfg.apply_cost_per_write_us = 0 then 0
  else begin
    let lanes = max 1 (min t.cfg.apply_partitions t.cores) in
    let total = List.length write_set * t.cfg.apply_cost_per_write_us in
    (total + lanes - 1) / lanes
  end

let service_cost t = function
  | Msg.Get _ -> t.cfg.get_cost_us
  | Msg.Put _ -> t.cfg.put_cost_us
  | Msg.Prepare _ -> t.cfg.prepare_cost_us
  | Msg.Finalize _ | Msg.Finalize_reply _ -> t.cfg.finalize_cost_us
  | Msg.Decide { write_set; _ } -> t.cfg.decide_cost_us + apply_cost t write_set
  | Msg.Paxos_prepare _ | Msg.Paxos_prepare_reply _ -> t.cfg.recovery_cost_us
  | Msg.Get_reply _ -> t.cfg.get_cost_us
  | Msg.Prepare_reply _ -> t.cfg.finalize_cost_us
  | Msg.Truncate _ | Msg.Propose_merge _ | Msg.Propose_merge_reply _
  | Msg.Truncation_finished _ -> t.cfg.recovery_cost_us
  | Msg.Catchup_request | Msg.Catchup_reply _ -> t.cfg.recovery_cost_us
  | Msg.Ro_pin _ | Msg.Ro_pin_reply _ | Msg.Ro_get _ | Msg.Ro_stale _ ->
    t.cfg.get_cost_us

let handle_normal t ~src msg =
  match msg with
  | Msg.Get { ver; key; seq; eid = _ } -> handle_get t ~src ver key seq
  | Msg.Put { ver; key; value; eid = _ } -> handle_put t ver key value
  | Msg.Prepare { ver; eid; read_set; write_set } ->
    process_prepare t ~src ver eid read_set write_set
  | Msg.Finalize { ver; eid; view; decision } -> handle_finalize t ~src ver eid view decision
  | Msg.Finalize_reply { ver; eid; view; accepted } ->
    handle_finalize_reply t ver eid view accepted
  | Msg.Decide { ver; eid; decision; abort; read_set; write_set } ->
    handle_decide t ver eid decision abort read_set write_set
  | Msg.Paxos_prepare { ver; eid; view } -> handle_paxos_prepare t ~src ver eid view
  | Msg.Paxos_prepare_reply _ -> handle_paxos_prepare_reply t ~src msg
  | Msg.Get_reply _ | Msg.Prepare_reply _ ->
    (* Replicas never receive client-bound messages. *)
    ()
  | Msg.Truncate { t_upto; entries } -> handle_truncate t ~src t_upto entries
  | Msg.Propose_merge { t_upto; t_view; merged } ->
    handle_propose_merge t ~src t_upto t_view merged
  | Msg.Propose_merge_reply { t_upto; t_view } ->
    handle_propose_merge_reply t t_upto t_view
  | Msg.Truncation_finished { t_upto; merged } ->
    handle_truncation_finished t t_upto merged
  | Msg.Catchup_request -> handle_catchup_request t ~src
  | Msg.Catchup_reply _ ->
    (* Stale reply for an already-finished catch-up round. *)
    ()
  | Msg.Ro_pin { ro_id } -> handle_ro_pin t ~src ro_id
  | Msg.Ro_get { snap; key; seq; ro_id } -> handle_ro_get t ~src snap key seq ro_id
  | Msg.Ro_pin_reply _ | Msg.Ro_stale _ ->
    (* Client-bound follower-read traffic. *)
    ()

let handle t ~src msg =
  if t.stopped then ()
  else
    match t.mode with
    | Recovering cu -> handle_recovering t ~src cu msg
    | Normal -> handle_normal t ~src msg

(* Which transaction's version (and execution id) a message's CPU time
   serves, for the wasted-work ledger.  [None] is infrastructure work:
   truncation, catch-up state transfer. *)
let busy_owner = function
  | Msg.Get { ver; eid; _ } | Msg.Put { ver; eid; _ }
  | Msg.Prepare { ver; eid; _ } | Msg.Prepare_reply { ver; eid; _ }
  | Msg.Finalize { ver; eid; _ } | Msg.Finalize_reply { ver; eid; _ }
  | Msg.Decide { ver; eid; _ }
  | Msg.Paxos_prepare { ver; eid; _ } | Msg.Paxos_prepare_reply { ver; eid; _ } ->
    (Some (ver.Version.ts, ver.Version.id), eid)
  | Msg.Get_reply { for_ver; _ } ->
    (Some (for_ver.Version.ts, for_ver.Version.id), 0)
  | Msg.Ro_get { snap; _ } -> (Some (snap.Version.ts, snap.Version.id), 0)
  | Msg.Truncate _ | Msg.Propose_merge _ | Msg.Propose_merge_reply _
  | Msg.Truncation_finished _ | Msg.Catchup_request | Msg.Catchup_reply _
  | Msg.Ro_pin _ | Msg.Ro_pin_reply _ | Msg.Ro_stale _ ->
    (None, 0)

(* Restart entry point: called by the harness on a freshly created
   (empty) replica after [set_peers].  Broadcasts the state-transfer
   request and re-broadcasts every [catchup_retry_us] until f+1 distinct
   donors replied (donors may be net-crashed or themselves recovering).
   Quorum argument: any durable decision is held by f+1 replicas, of
   which at least f are among this replica's 2f peers; f+1 replies from
   those 2f peers must intersect that set in at least one replica. *)
let start_catchup t =
  match t.mode with
  | Recovering _ -> ()
  | Normal ->
    let cu = { cu_from = []; cu_buffer = []; cu_started_us = Engine.now t.engine } in
    t.mode <- Recovering cu;
    broadcast t Msg.Catchup_request;
    let rec retry () =
      ignore
        (Engine.schedule t.engine ~after:t.cfg.catchup_retry_us (fun () ->
             match t.mode with
             | Recovering cu' when cu' == cu && not t.stopped ->
               broadcast t Msg.Catchup_request;
               retry ()
             | _ -> ()))
    in
    retry ()

let schedule_truncation t =
  if t.cfg.truncation_interval_us > 0 then begin
    let clock = Sim.Clock.perfect t.engine in
    let rec tick () =
      ignore
        (Engine.schedule t.engine ~after:t.cfg.truncation_interval_us (fun () ->
             if t.stopped then ()
             else begin
               (* A recovering replica's partial snapshot must not count
                  toward the coordinator's f+1 merge quorum. *)
               (match t.mode with
                | Recovering _ -> ()
                | Normal ->
                  let upto =
                    Version.make
                      ~ts:(Sim.Clock.read clock - t.cfg.truncation_interval_us)
                      ~id:min_int
                  in
                  if Version.compare upto (Version.make ~ts:0 ~id:min_int) > 0
                  then begin
                    let entries = snapshot_below t upto in
                    raise_fence t upto;
                    send t t.peers.(0) (Msg.Truncate { t_upto = upto; entries })
                  end);
               tick ()
             end))
    in
    tick ()
  end

(* A restart reuses the dead incarnation's node id so peers and clients
   keep a stable address; [set_handler] atomically replaces the old
   incarnation's handler. *)
let create_at ~node ~cfg ~engine ~net ~rng ~index ~cores
    ?(obs = Obs.Bus.null ()) () =
  let t =
    {
      cfg; engine; net; rng; index; node; cores;
      cpu = Cpu.create engine ~cores;
      obs;
      peers = [||];
      store = Mvstore.Vstore.create ();
      erecord = Hashtbl.create 4096;
      decision_log = Hashtbl.create 4096;
      waiting = Hashtbl.create 256;
      txn_keys = Hashtbl.create 4096;
      prepared_keys = Hashtbl.create 4096;
      read_keys = Hashtbl.create 4096;
      max_eid = Hashtbl.create 4096;
      recovering = Hashtbl.create 16;
      pending_fin = Hashtbl.create 16;
      watermark = None;
      trunc_fence = None;
      trunc_snapshots = Hashtbl.create 8;
      trunc_acks = Hashtbl.create 8;
      trunc_merged = Hashtbl.create 8;
      stats =
        { prepares = 0; commit_votes = 0; tentative_votes = 0; final_votes = 0;
          miss_notifications = 0; recoveries = 0; truncations = 0;
          state_transfer_msgs = 0; state_transfer_bytes = 0; catchups = 0;
          catchup_wait_us = 0 };
      stopped = false;
      mode = Normal;
    }
  in
  Net.set_handler net node (fun ~src msg ->
      let cost = service_cost t msg in
      if not (Obs.Bus.profiling t.obs) then
        Cpu.submit t.cpu ~cost (fun () -> handle t ~src msg)
      else begin
        (* Provenance: capture the inbound transit here (delivery info is
           only valid inside the net handler), then stamp replies sent by
           the CPU job with transit + measured queueing + service so the
           client can decompose its wait. *)
        let transit_us =
          match Net.current_delivery net with
          | Some d -> d.Net.di_recv_us - d.Net.di_send_us
          | None -> 0
        in
        Cpu.submit t.cpu ~cost
          ~prov:(fun ~queue_us ~start_us:_ ~end_us:_ ->
            let ver, eid = busy_owner msg in
            emit t (Obs.Bus.Busy { kind = Msg.label msg; ver; eid; cost_us = cost });
            Net.set_send_path net ~transit_us ~queue_us ~service_us:cost)
          (fun () ->
            handle t ~src msg;
            Net.clear_send_path net)
      end);
  schedule_truncation t;
  t

let create ~cfg ~engine ~net ~rng ~index ~region ~cores ?obs () =
  create_at ~node:(Net.add_node net ~region) ~cfg ~engine ~net ~rng ~index ~cores
    ?obs ()

(* Per-replica introspection: a protocol-agnostic snapshot of this
   replica's state for monitors and post-mortem bundles. *)
let state_view t =
  let versions = ref 0 in
  Mvstore.Vstore.iter t.store (fun _ vr ->
      versions :=
        !versions + List.length (Mvstore.Vrecord.committed_writes_list vr));
  {
    Obs.Monitor.v_replica = mon_label t;
    v_stopped = t.stopped;
    v_recovering = is_recovering t;
    v_watermark = Option.map Version.to_pair t.watermark;
    v_records = Hashtbl.length t.erecord;
    v_store_keys = store_size t;
    v_store_versions = !versions;
    v_counters =
      [
        ("prepares", t.stats.prepares);
        ("commit_votes", t.stats.commit_votes);
        ("tentative_votes", t.stats.tentative_votes);
        ("final_votes", t.stats.final_votes);
        ("miss_notifications", t.stats.miss_notifications);
        ("recoveries", t.stats.recoveries);
        ("truncations", t.stats.truncations);
        ("catchups", t.stats.catchups);
        ("decisions", Hashtbl.length t.decision_log);
        ("suspended", Hashtbl.length t.waiting);
      ];
  }
