module Version = Cc_types.Version
module Outcome = Cc_types.Outcome
module Net = Simnet.Net
module Engine = Sim.Engine

type commit_state = {
  mutable cs_groups : int list;  (** participants still to ack *)
  mutable cs_max_ts : int;
  mutable cs_failed : bool;
}

type txn = {
  life : Chassis.life;  (** its [ver] is the wound-wait priority *)
  ro : bool;
  ro_id : int;
  ro_ts : int;  (** snapshot timestamp for read-only transactions *)
  frs : Chassis.follower option;
      (** follower reads ([Config.max_staleness_us > 0] only): snapshot
          reads rotate across the whole group instead of pinning the
          leader; the snapshot, [ro_ts], is pinned at begin *)
  mutable reads : (string * Version.t) list;
  mutable read_vals : (string * string) list;
  mutable writes : (string * string) list;  (** reverse program order *)
  mutable pending : (int * ctx Chassis.pend) list;
  mutable next_seq : int;
  mutable doomed : bool;  (** wounded somewhere *)
  mutable commit_state : commit_state option;
}

and ctx = { c_txn : txn }

type stats = {
  mutable begun : int;
  mutable committed : int;
  mutable aborted : int;
  mutable ro_begun : int;
  mutable wounds_received : int;
}

type record = Cc_types.Txn_record.t

type t = {
  c : (txn, Msg.t) Chassis.t;
  cfg : Config.t;
  clock : Sim.Clock.t;
  rng : Sim.Rng.t;
  leaders : int array;
  groups : int array array;  (** full membership per group, leader first *)
  partition : string -> int;
  mutable last_ts : int;
  mutable last_commit_ts : int;
  mutable next_ro_id : int;
  txns : (Version.t, txn) Hashtbl.t;
  ro_txns : (int, txn) Hashtbl.t;
  stats : stats;
}

let node t = t.c.node
let stats t = t.stats
let last_comps t = t.c.comps
let id txn = txn.life.Chassis.ver
let send t dst msg = Chassis.send t.c dst msg
let ended txn = Chassis.ended txn.life
let participants t txn = Chassis.participants t.partition txn.reads txn.writes

let history =
  {
    Chassis.reads = (fun txn -> List.rev txn.reads);
    writes = (fun txn -> List.rev_map fst txn.writes);
    ro = (fun txn -> txn.ro);
    staleness_us = (fun txn -> match txn.frs with Some fr -> fr.stale_us | None -> 0);
  }

(* Observers key a transaction by its begin version — the id replicas
   see on lock/prepare traffic — not its commit version [ver]. *)
let finish t txn ~ver outcome =
  if not (ended txn) then begin
    Hashtbl.remove t.txns (id txn);
    if txn.ro then Hashtbl.remove t.ro_txns txn.ro_id;
    (match outcome with
     | Outcome.Committed -> t.stats.committed <- t.stats.committed + 1
     | Outcome.Aborted _ -> t.stats.aborted <- t.stats.aborted + 1);
    Chassis.finish t.c txn.life txn outcome ~ver ~eid:None ~reexecs:None
  end

(* History label for transactions that install nothing (read-only or
   aborted).  Committed read-write transactions are recorded at their
   true commit version — the install order replicas applied — but that
   timestamp namespace is chosen by the leaders, so labeling non-writers
   with begin timestamps in the same id-space can collide with it (the
   exploration harness found exactly that: a snapshot read's
   [ro_ts = ts - eps] landing on an earlier transaction's begin
   timestamp).  Begin timestamps are unique per client ([fresh_txn]
   forces [last_ts + 1]), so a disjoint negative id-space makes these
   labels globally unique without perturbing any version order the
   serializability oracle derives (only committed writers enter it). *)
let history_label t txn = Version.make ~ts:(id txn).Version.ts ~id:(-(t.c.node + 1))

let abort_txn t txn =
  List.iter
    (fun g -> send t t.leaders.(g) (Msg.Abort2pc { txn = id txn }))
    (participants t txn);
  (* Every Spanner protocol abort is a lock conflict: a wound-wait wound,
     a prepare nack, or a commit by an already-doomed transaction. *)
  finish t txn ~ver:(history_label t txn)
    (Outcome.Aborted Obs.Abort_reason.Lock_conflict)

(* --- Message handling ----------------------------------------------------- *)

let deliver_read t txn (p : ctx Chassis.pend) key w_ver value seq =
  txn.pending <- List.remove_assoc seq txn.pending;
  txn.reads <- (key, w_ver) :: txn.reads;
  txn.read_vals <- (key, value) :: txn.read_vals;
  if Obs.Bus.on t.c.obs then
    Chassis.emit t.c
      (Obs.Bus.Read
         { ver = Version.to_pair (id txn); key; from = Version.to_pair w_ver;
           eid = 0; sent_us = p.pd_sent });
  p.pd_cont { c_txn = txn } value

let handle_lock_reply t txn_id key value w_ver seq =
  match Hashtbl.find_opt t.txns txn_id with
  | None -> ()
  | Some txn -> (
    match List.assoc_opt seq txn.pending with
    | None -> ()
    | Some p -> deliver_read t txn p key w_ver value seq)

let handle_wounded t txn_id =
  match Hashtbl.find_opt t.txns txn_id with
  | None -> ()
  | Some txn ->
    t.stats.wounds_received <- t.stats.wounds_received + 1;
    txn.doomed <- true;
    (* If the wound lands mid-commit, fail the 2PC now. *)
    (match txn.commit_state with
     | Some cs when not cs.cs_failed ->
       cs.cs_failed <- true;
       abort_txn t txn
     | Some _ | None -> ())

let do_commit_wait t txn cs =
  (* TrueTime commit-wait: the commit timestamp must be in the past at
     every clock before effects become visible.  Monotonic per client so
     commit versions are unique. *)
  let commit_ts =
    max (max cs.cs_max_ts (Sim.Clock.read t.clock)) (t.last_commit_ts + 1)
  in
  t.last_commit_ts <- commit_ts;
  let commit_ver = Version.make ~ts:commit_ts ~id:t.c.node in
  let wait =
    max 0 (commit_ts + t.cfg.truetime_eps_us - Sim.Clock.read t.clock)
  in
  if txn.life.seg = Chassis.Prep then Chassis.switch t.c txn.life ~eid:None Chassis.Fin;
  ignore
    (Engine.schedule t.c.engine ~after:wait (fun () ->
         List.iter
           (fun g -> send t t.leaders.(g) (Msg.Commit2pc { txn = id txn; commit_ver }))
           (participants t txn);
         finish t txn ~ver:commit_ver Outcome.Committed))

let handle_prepare_ack t txn_id group prepare_ts =
  match Hashtbl.find_opt t.txns txn_id with
  | None -> ()
  | Some txn -> (
    match txn.commit_state with
    | Some cs when not cs.cs_failed ->
      if List.mem group cs.cs_groups then begin
        cs.cs_groups <- List.filter (fun g -> g <> group) cs.cs_groups;
        cs.cs_max_ts <- max cs.cs_max_ts prepare_ts;
        if cs.cs_groups = [] then do_commit_wait t txn cs
      end
    | Some _ | None -> ())

let handle_prepare_nack t txn_id _group =
  match Hashtbl.find_opt t.txns txn_id with
  | None -> ()
  | Some txn -> (
    match txn.commit_state with
    | Some cs when not cs.cs_failed ->
      cs.cs_failed <- true;
      abort_txn t txn
    | Some _ | None -> ())

let handle_ro_reply t ro_id key w_ver value seq =
  match Hashtbl.find_opt t.ro_txns ro_id with
  | None -> ()
  | Some txn -> (
    match List.assoc_opt seq txn.pending with
    | None -> ()
    | Some p -> deliver_read t txn p key w_ver value seq)

(* --- Follower-read redirects ([Config.max_staleness_us > 0] only) ------ *)

(* Every redirect path is exhausted: release the outstanding reads with
   empty values so the body's CPS chain still reaches [commit] (the
   closed-loop driver blocks on its outcome continuation), where the
   typed abort is reported. *)
let fr_doom txn (fr : Chassis.follower) reason =
  if fr.doomed = None && not (ended txn) then begin
    let pend = txn.pending in
    txn.pending <- [];
    Chassis.doom fr reason pend (fun p -> p.pd_cont { c_txn = txn } "")
  end

(* The follower read [seq] of [txn], while still pending and undoomed.
   Read timers hold [ro_id] and look the transaction up when they fire. *)
let fr_pending txn seq =
  match txn.frs with
  | Some fr when fr.doomed = None -> (
    match List.assoc_opt seq txn.pending with Some p -> Some (fr, p) | None -> None)
  | Some _ | None -> None

let rec fr_send_read t txn (fr : Chassis.follower) seq (p : ctx Chassis.pend) =
  let g = t.partition p.pd_key in
  let members = t.groups.(g) in
  let dst = members.(Chassis.rotated t.c fr ~g ~n:(Array.length members)) in
  send t dst (Msg.Ro_read { ro_id = txn.ro_id; key = p.pd_key; ts = txn.ro_ts; seq });
  let tries = p.pd_tries in
  ignore
    (Chassis.arm t.c t.ro_txns ~after:t.cfg.prepare_timeout_us txn.ro_id (fun txn ->
         (* Unchanged [pd_tries] means no reply and no redirect landed in
            the meantime: treat the replica as unreachable. *)
         match fr_pending txn seq with
         | Some (fr, p) when p.pd_tries = tries -> fr_redirect_read t txn fr seq p
         | Some _ | None -> ()))

and fr_redirect_read t txn (fr : Chassis.follower) seq (p : ctx Chassis.pend) =
  if (not (ended txn)) && fr.doomed = None then
    match
      Chassis.redirect fr t.rng ~replicas:(Config.n_replicas t.cfg)
        ~g:(t.partition p.pd_key) p
    with
    | None -> fr_doom txn fr (Chassis.exhausted ~saw_stale:fr.saw_stale)
    | Some wait ->
      ignore
        (Chassis.arm t.c t.ro_txns ~after:wait txn.ro_id (fun txn ->
             match fr_pending txn seq with
             | Some (fr, p) -> fr_send_read t txn fr seq p
             | None -> ()))

let handle_ro_stale t ro_id seq =
  match Hashtbl.find_opt t.ro_txns ro_id with
  | Some txn when not (ended txn) -> (
    match fr_pending txn seq with
    | Some (fr, p) ->
      fr.saw_stale <- true;
      fr_redirect_read t txn fr seq p
    | None -> ())
  | Some _ | None -> ()

let handle t ~src:_ msg =
  match msg with
  | Msg.Lock_reply { txn; key; value; w_ver; seq } ->
    handle_lock_reply t txn key value w_ver seq
  | Msg.Wounded { txn } -> handle_wounded t txn
  | Msg.Prepare_ack { txn; group; prepare_ts } -> handle_prepare_ack t txn group prepare_ts
  | Msg.Prepare_nack { txn; group } -> handle_prepare_nack t txn group
  | Msg.Ro_reply { ro_id; key; w_ver; value; seq } ->
    handle_ro_reply t ro_id key w_ver value seq
  | Msg.Ro_stale { ro_id; seq } -> handle_ro_stale t ro_id seq
  | Msg.Lock_read _ | Msg.Lock_write _ | Msg.Prepare2pc _ | Msg.Commit2pc _
  | Msg.Abort2pc _ | Msg.Ro_read _ | Msg.Paxos_accept _ | Msg.Paxos_ack _
  | Msg.Apply _ | Msg.Apply_hb _ | Msg.Apply_since _ -> ()

(* --- Public API ------------------------------------------------------------ *)

let create ~cfg ~engine ~net ~rng ~region ~leaders ~partition
    ?groups ?(obs = Obs.Bus.null ()) ?on_finish () =
  let groups =
    match groups with
    | Some gs -> gs
    | None -> Array.map (fun l -> [| l |]) leaders
  in
  let c = Chassis.create ~engine ~net ~region ~groups ~obs ~on_finish history in
  let t =
    {
      c; cfg;
      clock = Sim.Clock.create engine rng ~max_skew:cfg.max_clock_skew_us;
      rng;
      leaders; groups; partition;
      last_ts = 0;
      last_commit_ts = 0;
      next_ro_id = 0;
      txns = Hashtbl.create 16;
      ro_txns = Hashtbl.create 16;
      stats = { begun = 0; committed = 0; aborted = 0; ro_begun = 0; wounds_received = 0 };
    }
  in
  Chassis.serve c (fun ~src msg -> handle t ~src msg);
  t

(* Read-only transactions are keyed by [ro_id], read-write ones by their
   begin version. *)
let begin_with t ~ro ~follow body =
  let ts = max (Sim.Clock.read t.clock) (t.last_ts + 1) in
  t.last_ts <- ts;
  let ro_id = t.next_ro_id in
  if ro then t.next_ro_id <- ro_id + 1;
  (* Clamp at 0 under follower reads: in the first eps of a run
     [ts - eps] is negative, i.e. below any replica's initial safe
     timestamp, and nothing precedes the epoch anyway. *)
  let ro_ts =
    if follow then max 0 (ts - t.cfg.truetime_eps_us) else ts - t.cfg.truetime_eps_us
  in
  let frs =
    if not follow then None
    else begin
      (* The snapshot is pinned at begin: ro_ts = ts − eps, so its
         staleness is the TrueTime uncertainty plus clock skew. *)
      let fr = Chassis.follower t.c ~snap:ro_ts in
      fr.stale_us <- max 0 (Sim.Clock.read t.clock - ro_ts);
      if Obs.Bus.monitoring t.c.obs then
        Chassis.emit t.c
          (Obs.Bus.State
             (Obs.Monitor.Ro_pin
                {
                  replica = Printf.sprintf "c%d" t.c.node;
                  snap = (ro_ts, 0);
                  wm = (0, min_int);
                  staleness_us = fr.stale_us;
                  bound_us = t.cfg.max_staleness_us;
                }));
      Some fr
    end
  in
  let life = Chassis.begin_ t.c (Version.make ~ts ~id:t.c.node) ~ro in
  let txn =
    { life; ro; ro_id; ro_ts; frs; reads = []; read_vals = []; writes = [];
      pending = []; next_seq = 0; doomed = false; commit_state = None }
  in
  if ro then Hashtbl.replace t.ro_txns ro_id txn else Hashtbl.replace t.txns (id txn) txn;
  t.stats.begun <- t.stats.begun + 1;
  if ro then t.stats.ro_begun <- t.stats.ro_begun + 1;
  body { c_txn = txn }

let begin_ t body = begin_with t ~ro:false ~follow:false body

let begin_ro t body = begin_with t ~ro:true ~follow:(t.cfg.max_staleness_us > 0) body

let do_get t ctx key cont ~mode =
  let txn = ctx.c_txn in
  if ended txn then ()
  else
    match List.assoc_opt key txn.writes with
    | Some v -> cont ctx v
    | None -> (
      match List.assoc_opt key txn.read_vals with
      | Some v when mode = `Read -> cont ctx v
      | Some _ | None -> (
        match txn.frs with
        | Some fr when fr.doomed <> None -> cont ctx ""
        | frs ->
          let seq = txn.next_seq in
          txn.next_seq <- seq + 1;
          let p =
            { Chassis.pd_sent = Engine.now t.c.engine; pd_key = key; pd_tries = 0;
              pd_cont = cont }
          in
          txn.pending <- (seq, p) :: txn.pending;
          (match frs with
          | Some fr -> fr_send_read t txn fr seq p
          | None ->
            let leader = t.leaders.(t.partition key) in
            if txn.ro then
              send t leader
                (Msg.Ro_read { ro_id = txn.ro_id; key; ts = txn.ro_ts; seq })
            else (
              match mode with
              | `Read -> send t leader (Msg.Lock_read { txn = id txn; key; seq })
              | `Write -> send t leader (Msg.Lock_write { txn = id txn; key; seq })))))

let get t ctx key cont = do_get t ctx key cont ~mode:`Read

let get_for_update t ctx key cont = do_get t ctx key cont ~mode:`Write

let put _t ctx key value =
  let txn = ctx.c_txn in
  if (not (ended txn)) && not txn.ro then txn.writes <- (key, value) :: txn.writes;
  ctx

let abort t ctx =
  let txn = ctx.c_txn in
  if not (ended txn) then begin
    Hashtbl.remove t.txns (id txn);
    if txn.ro then Hashtbl.remove t.ro_txns txn.ro_id;
    t.stats.aborted <- t.stats.aborted + 1;
    Chassis.retire t.c txn.life;
    (* Release any locks acquired during execution. *)
    if not txn.ro then
      List.iter
        (fun g -> send t t.leaders.(g) (Msg.Abort2pc { txn = id txn }))
        (participants t txn)
  end

let commit t ctx cont =
  let txn = ctx.c_txn in
  if ended txn then ()
  else begin
    txn.life.on_outcome <- cont;
    if txn.ro then (
      (* Snapshot reads commit unilaterally — unless every replica of
         some group was unreachable or too stale. *)
      match txn.frs with
      | Some { doomed = Some reason; _ } ->
        finish t txn ~ver:(history_label t txn) (Outcome.Aborted reason)
      | Some _ | None ->
        finish t txn ~ver:(history_label t txn) Outcome.Committed)
    else if txn.doomed then abort_txn t txn
    else if txn.writes = [] then begin
      (* Read-only 2PL transaction: just release the read locks. *)
      List.iter
        (fun g -> send t t.leaders.(g) (Msg.Abort2pc { txn = id txn }))
        (participants t txn);
      finish t txn ~ver:(history_label t txn) Outcome.Committed
    end
    else begin
      let parts = participants t txn in
      let cs = { cs_groups = parts; cs_max_ts = 0; cs_failed = false } in
      Chassis.switch t.c txn.life ~eid:None Chassis.Prep;
      txn.commit_state <- Some cs;
      let dedup = Chassis.final_writes txn.writes in
      List.iter
        (fun g ->
          let writes = List.filter (fun (k, _) -> t.partition k = g) dedup in
          send t t.leaders.(g) (Msg.Prepare2pc { txn = id txn; writes }))
        parts
    end
  end
