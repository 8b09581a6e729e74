module Version = Cc_types.Version
module Rwset = Cc_types.Rwset
module Outcome = Cc_types.Outcome
module Net = Simnet.Net
module Engine = Sim.Engine

let src_log = Logs.Src.create "morty.client" ~doc:"Morty coordinator"

module Log = (val Logs.src_log src_log : Logs.LOG)

(* Follower-read mode of a transaction.  [Ro_pinned] reads a snapshot at
   the pinned replica's truncation watermark; [Ro_doomed] is the
   graceful-degradation terminal state — every reachable replica was too
   stale (or unreachable), so the body runs against a void store and the
   commit resolves to the typed abort. *)
type ro_mode =
  | Ro_pinned of { rp_replica : Net.node; rp_stale_us : int; rp_id : int }
  | Ro_doomed of Obs.Abort_reason.t

type slot = {
  s_index : int;
  s_key : string;
  s_seq : int;  (** network sequence number; [-1] when served locally *)
  s_sent_us : int;  (** when the Get was first sent, for read spans *)
  mutable s_reply : (Version.t * string) option;
  s_cont : ctx -> string -> unit;
}

and op = Op_read of int | Op_write of string * string

and prep = {
  p_eid : int;
  mutable p_votes : (Net.node * Vote.t) list;
  mutable p_timer : Engine.timer option;
  mutable p_forced : bool;
  mutable p_round : int;  (** resends so far *)
}

and fin = {
  f_eid : int;
  f_decision : Decision.t;
  mutable f_ackers : Net.node list;
  mutable f_fired : bool;
}

and phase = Executing | Preparing of prep | Finalizing of fin

and txn = {
  life : Chassis.life;  (** its [ver] is the transaction's version *)
  mutable eid : int;
  mutable slots : slot list;  (** program order *)
  mutable ops : op list;  (** program order *)
  mutable phase : phase;
  mutable reexec_count : int;
  mutable next_seq : int;
  mutable t_reason : Obs.Abort_reason.t option;
      (** classified cause of the latest abandon vote *)
  ro : ro_mode option;  (** [Some] marks a follower-read transaction *)
}

and ctx = { c_txn : txn; c_eid : int }

(* One follower-read pin series: the redirect cycle over replicas, the
   stored body (re-run in full on every re-pin — a snapshot change
   invalidates everything already read), and the transaction currently
   executing against the pinned snapshot. *)
type ro_pin_st = {
  rs_id : int;
  rs_body : ctx -> unit;
  mutable rs_attempt : int;
  mutable rs_saw_stale : bool;
      (** a reachable replica answered but was too stale: exhaustion
          classifies as [Stale_replica] rather than [Timeout] *)
  mutable rs_txn : txn option;
  mutable rs_done : bool;
}

type stats = {
  mutable begun : int;
  mutable committed : int;
  mutable aborted : int;
  mutable reexecs : int;
  mutable miss_notifications : int;
  mutable fast_commits : int;
  mutable slow_commits : int;
}

type record = Cc_types.Txn_record.t

type t = {
  c : (txn, Msg.t) Chassis.t;
  cfg : Config.t;
  clock : Sim.Clock.t;
  rng : Sim.Rng.t;
  replicas : int array;
  closest : Net.node;
  mutable last_ts : int;
  txns : (Version.t, txn) Hashtbl.t;
  (* Follower-read pin series in flight, keyed by pin id. *)
  ro_pins : (int, ro_pin_st) Hashtbl.t;
  mutable ro_seq : int;
  (* Outstanding Finalize–Abandon rounds for superseded executions:
     (ver, eid) -> acks so far. *)
  abandon_acks : (Version.t * int, Net.node list ref) Hashtbl.t;
  stats : stats;
  prepare_timeout : txn -> unit;
      (** the prepare timer's action, allocated once per client *)
}

let node t = t.c.node
let stats t = t.stats
let last_comps t = t.c.comps
let ver txn = txn.life.Chassis.ver
let emit t ev = Chassis.emit t.c ev
let send t dst msg = Chassis.send t.c dst msg
let broadcast t msg = Array.iter (fun dst -> send t dst msg) t.replicas
let stale ctx = ctx.c_eid <> ctx.c_txn.eid || Chassis.ended ctx.c_txn.life
(* [Phase] carries the execution and [Finish] the re-execution count;
   boxed only when the bus records them. *)
let numbered t n = if Obs.Bus.on t.c.obs then Some n else None
let switch t txn seg = Chassis.switch t.c txn.life ~eid:(numbered t txn.eid) seg

let note_reason txn reason =
  match reason with
  | None -> ()
  | Some r ->
    txn.t_reason <-
      Some
        (match txn.t_reason with
        | None -> r
        | Some r0 -> Obs.Abort_reason.prefer r0 r)

(* --- Read/write sets of the current execution ------------------------- *)

let read_set_of txn =
  List.filter_map
    (fun s ->
      match s.s_reply with
      | Some (r_ver, r_val) when s.s_seq >= 0 ->
        Some { Rwset.key = s.s_key; r_ver; r_val }
      | Some _ | None -> None)
    txn.slots

let write_set_of txn =
  Rwset.dedup_writes
    (List.filter_map
       (function
         | Op_write (key, w_val) -> Some { Rwset.key; w_val }
         | Op_read _ -> None)
       txn.ops)

let history =
  {
    Chassis.reads =
      (fun txn -> List.map (fun (r : Rwset.read) -> (r.key, r.r_ver)) (read_set_of txn));
    writes = (fun txn -> List.map (fun (w : Rwset.write) -> w.key) (write_set_of txn));
    ro = (fun txn -> txn.ro <> None);
    staleness_us =
      (fun txn -> match txn.ro with Some (Ro_pinned p) -> p.rp_stale_us | _ -> 0);
  }

(* --- Transaction completion ------------------------------------------- *)

let finish t txn outcome =
  if not (Chassis.ended txn.life) then begin
    Hashtbl.remove t.txns (ver txn);
    (* A finished follower read closes its pin series: late Ro_stale or
       pin replies must not restart the body. *)
    (match txn.ro with
     | Some (Ro_pinned p) -> (
       match Hashtbl.find_opt t.ro_pins p.rp_id with
       | Some st ->
         st.rs_done <- true;
         Hashtbl.remove t.ro_pins p.rp_id
       | None -> ())
     | Some (Ro_doomed _) | None -> ());
    (match outcome with
     | Outcome.Committed -> t.stats.committed <- t.stats.committed + 1
     | Outcome.Aborted _ -> t.stats.aborted <- t.stats.aborted + 1);
    Chassis.finish t.c txn.life txn outcome ~ver:(ver txn)
      ~eid:(numbered t txn.eid) ~reexecs:(numbered t txn.reexec_count)
  end

let decide t txn eid decision ~abort =
  if Obs.Bus.on t.c.obs then
    emit t
      (Obs.Bus.Decide
         { ver = Version.to_pair (ver txn); eid;
           decision = Decision.to_string decision });
  broadcast t
    (Msg.Decide
       {
         ver = ver txn;
         eid;
         decision;
         abort;
         read_set = read_set_of txn;
         write_set = write_set_of txn;
       })

let finish_commit t txn eid ~fast =
  if fast then t.stats.fast_commits <- t.stats.fast_commits + 1
  else t.stats.slow_commits <- t.stats.slow_commits + 1;
  decide t txn eid Decision.Commit ~abort:false;
  finish t txn Outcome.Committed

(* The decision for [eid] is Abandon.  If a re-execution superseded that
   execution, the transaction lives on; otherwise it aborts. *)
let abandon_outcome t txn eid =
  if txn.eid > eid then decide t txn eid Decision.Abandon ~abort:false
  else begin
    decide t txn eid Decision.Abandon ~abort:true;
    (* No replica identified a conflict for this execution (e.g. a forced
       slow path on a straggler quorum) → the fallback Timeout cause. *)
    let reason =
      match txn.t_reason with Some r -> r | None -> Obs.Abort_reason.Timeout
    in
    finish t txn (Outcome.Aborted reason)
  end

(* --- Commit protocol --------------------------------------------------- *)

let rec start_prepare t txn =
  let read_set = read_set_of txn in
  let write_set = write_set_of txn in
  let p =
    { p_eid = txn.eid; p_votes = []; p_timer = None; p_forced = false; p_round = 0 }
  in
  switch t txn Chassis.Prep;
  txn.phase <- Preparing p;
  broadcast t (Msg.Prepare { ver = ver txn; eid = txn.eid; read_set; write_set });
  arm_prepare_timer t txn p

and arm_prepare_timer t txn p =
  (* Resends back off exponentially: a Prepare suspended at replicas on
     an undecided dependency (the common case under contention) gains
     nothing from re-broadcast, so only crash/loss recovery needs it.
     Seeded jitter (up to half the base) desynchronizes coordinators
     that timed out together — without it, concurrent retries arrive in
     lockstep and collide again (a retry storm). *)
  let delay =
    Sim.Backoff.equal_jitter t.rng ~base_us:t.cfg.prepare_timeout_us
      ~attempt:p.p_round ()
  in
  p.p_timer <- Some (Chassis.arm t.c t.txns ~after:delay (ver txn) t.prepare_timeout)

(* Every way out of [Preparing p] cancels [p]'s timer first, so the prep
   the timer finds is the one that armed it. *)
and prepare_timeout t txn =
  match txn.phase with
  | Preparing p ->
    p.p_forced <- true;
    if List.length p.p_votes >= t.cfg.f + 1 then evaluate_votes t txn p
    else begin
      broadcast t
        (Msg.Prepare
           {
             ver = ver txn;
             eid = txn.eid;
             read_set = read_set_of txn;
             write_set = write_set_of txn;
           });
      p.p_round <- p.p_round + 1;
      arm_prepare_timer t txn p
    end
  | Executing | Finalizing _ -> ()

and observe_fast_path t txn p votes =
  (* Fast-path vote consistency: taking the fast path claims a full
     2f+1 quorum of matching Commit votes — hand the monitor the votes
     actually held so it can re-check. *)
  if Obs.Bus.monitoring t.c.obs then
    emit t
      (Obs.Bus.State
         (Obs.Monitor.Fast_path
            {
              ver = ((ver txn).Version.ts, (ver txn).Version.id);
              quorum = (2 * t.cfg.f) + 1;
              votes = List.map (fun v -> Fmt.str "%a" Vote.pp v) votes;
            }));
  ignore p

and evaluate_votes t txn p =
  let votes = List.map snd p.p_votes in
  match Vote.aggregate ~f:t.cfg.f ~force:p.p_forced votes with
  | Vote.Undecided -> ()
  | Vote.Commit_fast when t.cfg.always_slow_path ->
    cancel_timer t p;
    start_finalize t txn p.p_eid Decision.Commit
  | Vote.Commit_fast ->
    observe_fast_path t txn p votes;
    cancel_timer t p;
    finish_commit t txn p.p_eid ~fast:true
  | Vote.Abandon_fast ->
    cancel_timer t p;
    abandon_outcome t txn p.p_eid
  | Vote.Commit_slow ->
    cancel_timer t p;
    start_finalize t txn p.p_eid Decision.Commit
  | Vote.Abandon_slow ->
    cancel_timer t p;
    start_finalize t txn p.p_eid Decision.Abandon

and cancel_timer t p =
  match p.p_timer with
  | Some timer ->
    Engine.cancel t.c.engine timer;
    p.p_timer <- None
  | None -> ()

and start_finalize t txn eid decision =
  let f = { f_eid = eid; f_decision = decision; f_ackers = []; f_fired = false } in
  switch t txn Chassis.Fin;
  txn.phase <- Finalizing f;
  broadcast t (Msg.Finalize { ver = ver txn; eid; view = 0; decision });
  arm_finalize t txn f

and arm_finalize t txn f =
  ignore
    (Chassis.arm t.c t.txns ~after:t.cfg.prepare_timeout_us (ver txn) (fun txn ->
         match txn.phase with
         | Finalizing f' when f' == f && not f.f_fired ->
           broadcast t
             (Msg.Finalize
                { ver = ver txn; eid = f.f_eid; view = 0; decision = f.f_decision });
           arm_finalize t txn f
         | Finalizing _ | Executing | Preparing _ -> ()))

(* --- Re-execution ------------------------------------------------------ *)

and reexecute t txn idx (slot : slot) w_ver value ~trigger =
  t.stats.reexecs <- t.stats.reexecs + 1;
  txn.reexec_count <- txn.reexec_count + 1;
  (* Flow arrow source: anchored inside the execution span being
     superseded (which the switch below ends at [now]). *)
  if Obs.Bus.on t.c.obs then
    emit t (Obs.Bus.Supersede { ver = Version.to_pair (ver txn); eid = txn.eid });
  Log.debug (fun m ->
      m "txn %a re-executes from read %d of %s" Version.pp (ver txn) idx slot.s_key);
  (* If the current execution already entered Prepare, durably abandon it
     (§4.2, Commit & Re-Execution).  The abandon round proceeds in the
     background, overlapped with the re-execution: the coordinator will
     never propose Commit for the superseded execution, and only the
     coordinator (or recovery, after a long timeout) proposes decisions,
     so overlapping is safe and saves a round trip per re-execution. *)
  (match txn.phase with
   | Preparing p when p.p_eid = txn.eid ->
     cancel_timer t p;
     Hashtbl.replace t.abandon_acks (ver txn, txn.eid) (ref []);
     broadcast t
       (Msg.Finalize
          { ver = ver txn; eid = txn.eid; view = 0; decision = Decision.Abandon })
   | Preparing _ | Executing | Finalizing _ -> ());
  (* A fresh execution starts with a clean slate of abandon causes; its
     execute segment is labelled as a re-execution span. *)
  switch t txn Chassis.Reexec;
  txn.phase <- Executing;
  txn.eid <- txn.eid + 1;
  txn.t_reason <- None;
  (* The flow arrow's head lands in the fresh execution's span, and the
     corrected read is the new execution's first observation.  When the
     corrected version is the initial datum (the observed writer aborted
     and the read reverts), the blame lies with the writer whose
     disappearance triggered this re-execution — the version the slot
     observed before the unroll below overwrites it. *)
  if Obs.Bus.on t.c.obs then begin
    let from = Version.to_pair w_ver in
    let aggressor =
      if from <> Obs.Lineage.v0 then from
      else
        match slot.s_reply with
        | Some (old_ver, _) -> Version.to_pair old_ver
        | None -> Obs.Lineage.v0
    in
    emit t
      (Obs.Bus.Reexec
         { ver = Version.to_pair (ver txn); eid = txn.eid; from_read = idx;
           key = slot.s_key; trigger; aggressor; from })
  end;
  (* Unroll: keep the operation prefix up to and including this read. *)
  txn.slots <-
    List.filter_map
      (fun s ->
        if s.s_index < idx then Some s
        else if s.s_index = idx then begin
          s.s_reply <- Some (w_ver, value);
          Some s
        end
        else None)
      txn.slots;
  let rec prefix acc = function
    | [] -> List.rev acc
    | Op_read i :: _ when i = idx -> List.rev (Op_read i :: acc)
    | op :: rest -> prefix (op :: acc) rest
  in
  txn.ops <- prefix [] txn.ops;
  (* Resume the application from the stored continuation. *)
  slot.s_cont { c_txn = txn; c_eid = txn.eid } value

and consider_reexec t txn key w_ver value ~trigger =
  if
    Chassis.ended txn.life
    || (not t.cfg.reexecution)
    || txn.reexec_count >= t.cfg.max_reexecs
    || Version.compare w_ver (ver txn) >= 0
  then ()
  else begin
    (* Re-executions must not start once a Commit decision may already be
       durable. *)
    let commit_in_flight =
      match txn.phase with
      | Finalizing f -> Decision.equal f.f_decision Decision.Commit
      | Executing | Preparing _ -> false
    in
    if not commit_in_flight then
      (* The push reflects the serving replica's current view of the
         latest write visible to this read: shift the read forward (a
         missed newer write) or backward (an observed write was
         retracted by an abort) — any difference re-executes. *)
      let target =
        List.find_opt
          (fun s ->
            String.equal s.s_key key
            &&
            match s.s_reply with
            | Some (r_ver, r_val) ->
              (not (Version.equal r_ver w_ver)) || not (String.equal r_val value)
            | None -> false)
          txn.slots
      in
      match target with
      | Some slot -> reexecute t txn slot.s_index slot w_ver value ~trigger
      | None -> ()
  end

(* --- Message handling --------------------------------------------------- *)

let handle_get_reply t for_ver key w_ver value seq =
  match Hashtbl.find_opt t.txns for_ver with
  | None -> ()
  | Some txn -> (
    match seq with
    | Some s -> (
      let slot = List.find_opt (fun slot -> slot.s_seq = s) txn.slots in
      match slot with
      | Some slot when slot.s_reply = None ->
        slot.s_reply <- Some (w_ver, value);
        if Obs.Bus.on t.c.obs then
          emit t
            (Obs.Bus.Read
               { ver = Version.to_pair (ver txn); key = slot.s_key;
                 from = Version.to_pair w_ver; eid = txn.eid;
                 sent_us = slot.s_sent_us });
        slot.s_cont { c_txn = txn; c_eid = txn.eid } value
      | Some _ | None -> (* stale or duplicate *) ())
    | None ->
      t.stats.miss_notifications <- t.stats.miss_notifications + 1;
      consider_reexec t txn key w_ver value ~trigger:Obs.Lineage.Missed_read)

let handle_prepare_reply t ver eid vote missed reason ~src =
  match Hashtbl.find_opt t.txns ver with
  | None -> ()
  | Some txn ->
    if txn.eid = eid then note_reason txn reason;
    (* Attached misses may trigger re-execution; process them first so a
       doomed execution is superseded before we count its votes. *)
    List.iter
      (fun (key, w_ver, value) ->
        t.stats.miss_notifications <- t.stats.miss_notifications + 1;
        consider_reexec t txn key w_ver value
          ~trigger:Obs.Lineage.Stale_version)
      missed;
    (match txn.phase with
     | Preparing p when p.p_eid = eid && txn.eid = eid ->
       if not (List.mem_assoc src p.p_votes) then begin
         p.p_votes <- (src, vote) :: p.p_votes;
         evaluate_votes t txn p
       end
     | Preparing _ | Executing | Finalizing _ -> ())

let handle_finalize_reply t ver eid view accepted ~src =
  (* Abandon rounds for superseded executions are tracked separately. *)
  match Hashtbl.find_opt t.abandon_acks (ver, eid) with
  | Some acks ->
    if accepted && view = 0 && not (List.mem src !acks) then acks := src :: !acks;
    if List.length !acks >= t.cfg.f + 1 then begin
      (* The superseded execution's Abandon is durable: let replicas
         clean up its prepared state. *)
      Hashtbl.remove t.abandon_acks (ver, eid);
      match Hashtbl.find_opt t.txns ver with
      | None -> ()
      | Some txn -> decide t txn eid Decision.Abandon ~abort:false
    end
  | None -> (
    match Hashtbl.find_opt t.txns ver with
    | None -> ()
    | Some txn -> (
      match txn.phase with
      | Finalizing f when f.f_eid = eid && not f.f_fired ->
        if accepted && view = 0 then begin
          if not (List.mem src f.f_ackers) then f.f_ackers <- src :: f.f_ackers;
          if List.length f.f_ackers >= t.cfg.f + 1 then begin
            f.f_fired <- true;
            match f.f_decision with
            | Decision.Commit -> finish_commit t txn eid ~fast:false
            | Decision.Abandon -> abandon_outcome t txn eid
          end
        end
        else if not accepted then begin
          (* A recovery coordinator outpaced us; treat as aborted (the
             rare at-least-once window is documented in replica.ml). *)
          f.f_fired <- true;
          finish t txn (Outcome.Aborted Obs.Abort_reason.Recovery_stall)
        end
      | Finalizing _ | Executing | Preparing _ -> ()))

(* --- Transactions ------------------------------------------------------- *)

(* Open a transaction at [ver], registered and profiled; [ro] marks a
   follower read. *)
let mk_txn t ver ro =
  let life = Chassis.begin_ t.c ver ~ro:(ro <> None) in
  let txn =
    { life; eid = 0; slots = []; ops = []; phase = Executing; reexec_count = 0;
      next_seq = 0; t_reason = None; ro }
  in
  Hashtbl.replace t.txns ver txn;
  txn

(* --- Follower reads (watermark-pinned snapshots) ------------------------ *)

(* The snapshot version for a pin at watermark timestamp [wm_ts].  The
   negative id places the snapshot above the watermark sentinel
   (id [min_int]) but below every real commit at the same timestamp
   (ids are client node ids, >= 0), so [latest_committed_before]
   observes exactly the commits strictly below the watermark.  Ids are
   globally unique: node ids are distinct and the per-client sequence
   stays below the stride. *)
let ro_ver t wm_ts =
  let seq = t.ro_seq in
  t.ro_seq <- seq + 1;
  Version.make ~ts:wm_ts ~id:(-((t.c.node * 1_000_000) + seq + 1))

let ro_replica_ix t node =
  let ix = ref None in
  Array.iteri (fun i r -> if r = node && !ix = None then ix := Some i) t.replicas;
  !ix

(* Run the series' body against a fresh transaction. *)
let ro_run t st ver ro =
  let txn = mk_txn t ver (Some ro) in
  st.rs_txn <- Some txn;
  st.rs_body { c_txn = txn; c_eid = 0 }

let rec ro_try_pin t st =
  if (not st.rs_done) && st.rs_txn = None then begin
    let n = Array.length t.replicas in
    let dst = t.replicas.((t.c.closest_ix.(0) + st.rs_attempt) mod n) in
    send t dst (Msg.Ro_pin { ro_id = st.rs_id });
    let at = st.rs_attempt in
    ignore
      (Chassis.arm t.c t.ro_pins ~after:t.cfg.prepare_timeout_us st.rs_id (fun st ->
           if st.rs_txn = None && st.rs_attempt = at then ro_advance t st))
  end

and ro_advance t st =
  st.rs_attempt <- st.rs_attempt + 1;
  if st.rs_attempt >= Chassis.attempt_cap ~replicas:(Array.length t.replicas) then
    ro_exhausted t st
  else begin
    let wait = Chassis.backoff t.rng ~attempt:st.rs_attempt in
    ignore (Chassis.arm t.c t.ro_pins ~after:wait st.rs_id (ro_try_pin t))
  end

(* Graceful degradation's floor: no reachable replica could serve within
   the bound.  The body still runs — against a doomed transaction whose
   reads return immediately and whose commit resolves to the typed
   abort — so the caller's continuation chain always reaches its
   outcome and the closed-loop driver never deadlocks. *)
and ro_exhausted t st =
  st.rs_done <- true;
  Hashtbl.remove t.ro_pins st.rs_id;
  let reason = Chassis.exhausted ~saw_stale:st.rs_saw_stale in
  ro_run t st (ro_ver t (Sim.Clock.read t.clock)) (Ro_doomed reason)

let ro_handle_pin_reply t st ~src wm =
  if st.rs_done || st.rs_txn <> None then ()
  else
    match wm with
    | Some (w : Version.t) ->
      let staleness = max 0 (Sim.Clock.read t.clock - w.Version.ts) in
      if staleness > t.cfg.max_staleness_us then begin
        st.rs_saw_stale <- true;
        ro_advance t st
      end
      else begin
        let ver = ro_ver t w.Version.ts in
        (if Obs.Bus.monitoring t.c.obs then
           match ro_replica_ix t src with
           | Some ix ->
             emit t
               (Obs.Bus.State
                  (Obs.Monitor.Ro_pin
                     {
                       replica = Printf.sprintf "r%d" ix;
                       snap = (ver.Version.ts, ver.Version.id);
                       wm = (w.Version.ts, w.Version.id);
                       staleness_us = staleness;
                       bound_us = t.cfg.max_staleness_us;
                     }))
           | None -> ());
        (* A fresh pin starts a fresh redirect cycle. *)
        st.rs_attempt <- 0;
        ro_run t st ver
          (Ro_pinned { rp_replica = src; rp_stale_us = staleness; rp_id = st.rs_id })
      end
    | None ->
      (* The replica answered but has no certifiable snapshot yet:
         infinitely stale for our purposes. *)
      st.rs_saw_stale <- true;
      ro_advance t st

(* The watermark overtook the pinned snapshot mid-read, or the pinned
   replica stopped answering reads (crash or partition): re-pin.  The
   pinned execution is retired without recording anything: the re-pin
   replays the whole body against a fresher snapshot (the ended life
   stales every stored continuation of the old one). *)
let ro_repin t st txn =
  Chassis.discard t.c txn.life;
  Hashtbl.remove t.txns (ver txn);
  st.rs_txn <- None;
  ro_advance t st

let ro_handle_stale t st =
  match st.rs_txn with
  | Some txn when (not (Chassis.ended txn.life)) && not st.rs_done ->
    st.rs_saw_stale <- true;
    ro_repin t st txn
  | Some _ | None -> ()

(* Reached from the per-read timeout in [get]. *)
let ro_unreachable t rp_id txn =
  match Hashtbl.find_opt t.ro_pins rp_id with
  | Some st -> (
    match st.rs_txn with
    | Some cur when cur == txn && (not (Chassis.ended txn.life)) && not st.rs_done ->
      ro_repin t st txn
    | Some _ | None -> ())
  | None -> ()

let ro_begin t body =
  t.stats.begun <- t.stats.begun + 1;
  let id = t.ro_seq in
  t.ro_seq <- id + 1;
  let st =
    { rs_id = id; rs_body = body; rs_attempt = 0; rs_saw_stale = false;
      rs_txn = None; rs_done = false }
  in
  Hashtbl.replace t.ro_pins id st;
  ro_try_pin t st

let handle t ~src msg =
  match msg with
  | Msg.Get_reply { for_ver; key; w_ver; value; seq } ->
    handle_get_reply t for_ver key w_ver value seq
  | Msg.Prepare_reply { ver; eid; vote; missed; reason } ->
    handle_prepare_reply t ver eid vote missed reason ~src
  | Msg.Finalize_reply { ver; eid; view; accepted } ->
    handle_finalize_reply t ver eid view accepted ~src
  | Msg.Ro_pin_reply { ro_id; wm } -> (
    match Hashtbl.find_opt t.ro_pins ro_id with
    | Some st -> ro_handle_pin_reply t st ~src wm
    | None -> ())
  | Msg.Ro_stale { ro_id } -> (
    match Hashtbl.find_opt t.ro_pins ro_id with
    | Some st -> ro_handle_stale t st
    | None -> ())
  | Msg.Get _ | Msg.Put _ | Msg.Prepare _ | Msg.Finalize _ | Msg.Decide _
  | Msg.Paxos_prepare _ | Msg.Paxos_prepare_reply _ | Msg.Truncate _
  | Msg.Propose_merge _ | Msg.Propose_merge_reply _ | Msg.Truncation_finished _
  | Msg.Catchup_request | Msg.Catchup_reply _ | Msg.Ro_pin _ | Msg.Ro_get _ ->
    ()

(* --- Public API --------------------------------------------------------- *)

let create ~cfg ~engine ~net ~rng ~region ~replicas ?(obs = Obs.Bus.null ())
    ?on_finish () =
  let c =
    Chassis.create ~engine ~net ~region ~groups:[| replicas |] ~obs ~on_finish
      history
  in
  let rec t =
    {
      c;
      cfg;
      clock = Sim.Clock.create engine rng ~max_skew:cfg.max_clock_skew_us;
      rng;
      replicas;
      closest = replicas.(c.closest_ix.(0));
      last_ts = 0;
      txns = Hashtbl.create 16;
      ro_pins = Hashtbl.create 8;
      ro_seq = 0;
      abandon_acks = Hashtbl.create 16;
      stats =
        { begun = 0; committed = 0; aborted = 0; reexecs = 0;
          miss_notifications = 0; fast_commits = 0; slow_commits = 0 };
      prepare_timeout = (fun txn -> prepare_timeout t txn);
    }
  in
  Chassis.serve c (fun ~src msg -> handle t ~src msg);
  t

let begin_ t body =
  let ts = max (Sim.Clock.read t.clock) (t.last_ts + 1) in
  t.last_ts <- ts;
  let txn = mk_txn t (Version.make ~ts ~id:t.c.node) None in
  t.stats.begun <- t.stats.begun + 1;
  body { c_txn = txn; c_eid = 0 }

(* Whether the read sent with sequence number [seq] is still listed in
   [txn]'s slots and unanswered.  Read timers look their transaction up
   by version and their slot by [seq] when they fire, instead of
   capturing either: a slot's continuation reaches the whole execution,
   which would otherwise stay reachable from the event queue until the
   timer fires, long after the transaction finished. *)
let unanswered txn seq =
  List.exists (fun s -> s.s_seq = seq && s.s_reply = None) txn.slots

(* Reads normally go only to the closest replica; if it is unreachable
   (crash, partition), retry on the others.  A re-execution that unrolls
   past this read drops its slot. *)
let rec arm_get_retry t txn key seq attempt =
  ignore
    (Chassis.arm t.c t.txns ~after:t.cfg.prepare_timeout_us (ver txn) (fun txn ->
         if unanswered txn seq then begin
           let dst = t.replicas.(attempt mod Array.length t.replicas) in
           send t dst (Msg.Get { ver = ver txn; key; seq; eid = txn.eid });
           arm_get_retry t txn key seq (attempt + 1)
         end))

let get t ctx key cont =
  if stale ctx then ()
  else begin
    let txn = ctx.c_txn in
    (* Read-your-own-writes: serve from the write buffer. *)
    let own_write =
      List.fold_left
        (fun acc op ->
          match op with
          | Op_write (k, v) when String.equal k key -> Some v
          | Op_write _ | Op_read _ -> acc)
        None txn.ops
    in
    match own_write with
    | Some v -> cont ctx v
    | None -> (
      match txn.ro with
      | Some (Ro_doomed _) -> cont ctx ""
      | Some (Ro_pinned _) | None -> (
        (* Repeatable reads: a second read of the same key returns the
           value already observed (snapshot reads are stable anyway). *)
        match
          List.find_opt (fun s -> String.equal s.s_key key && s.s_reply <> None) txn.slots
        with
        | Some s ->
          let value = match s.s_reply with Some (_, v) -> v | None -> "" in
          cont ctx value
        | None -> (
          let seq = txn.next_seq in
          txn.next_seq <- seq + 1;
          let slot =
            { s_index = List.length txn.slots; s_key = key; s_seq = seq;
              s_sent_us = Engine.now t.c.engine; s_reply = None; s_cont = cont }
          in
          txn.slots <- txn.slots @ [ slot ];
          txn.ops <- txn.ops @ [ Op_read slot.s_index ];
          match txn.ro with
          | Some (Ro_pinned p) ->
            (* All reads of a follower read go to the one pinned replica,
               which serves them at the snapshot (or answers [Ro_stale]).
               If it goes silent, re-pin the whole transaction elsewhere
               rather than retrying here: any other replica's snapshot
               differs, so partial reads are void.  Follower reads never
               re-execute, so the slot stays listed. *)
            send t p.rp_replica
              (Msg.Ro_get { snap = ver txn; key; seq; ro_id = p.rp_id });
            let rp_id = p.rp_id in
            ignore
              (Chassis.arm t.c t.txns ~after:t.cfg.prepare_timeout_us (ver txn)
                 (fun txn -> if unanswered txn seq then ro_unreachable t rp_id txn))
          | Some (Ro_doomed _) | None ->
            send t t.closest (Msg.Get { ver = ver txn; key; seq; eid = txn.eid });
            arm_get_retry t txn key seq 0)))
  end

let put t ctx key value =
  if stale ctx || ctx.c_txn.ro <> None then ctx
  else begin
    let txn = ctx.c_txn in
    txn.ops <- txn.ops @ [ Op_write (key, value) ];
    broadcast t (Msg.Put { ver = ver txn; key; value; eid = txn.eid });
    ctx
  end

let commit t ctx cont =
  if stale ctx then ()
  else begin
    let txn = ctx.c_txn in
    txn.life.on_outcome <- cont;
    match txn.ro with
    | Some (Ro_doomed reason) -> finish t txn (Outcome.Aborted reason)
    | Some (Ro_pinned _) ->
      (* Snapshot reads at the watermark need no validation: nothing
         below an installed watermark can newly commit (a Prepare below
         it is abandoned), so the read set is stable and the
         serialization point is the watermark itself. *)
      finish t txn Outcome.Committed
    | None -> start_prepare t txn
  end

let abort t ctx =
  if stale ctx then ()
  else begin
    let txn = ctx.c_txn in
    if txn.ro = None then decide t txn txn.eid Decision.Abandon ~abort:true;
    finish t txn (Outcome.Aborted Obs.Abort_reason.User_abort)
  end

(* With follower reads off (the default), [begin_ro] is exactly
   [begin_]: no pin traffic, no extra timers, no RNG draws. *)
let begin_ro t body =
  if t.cfg.max_staleness_us > 0 then ro_begin t body else begin_ t body

let get_for_update = get
