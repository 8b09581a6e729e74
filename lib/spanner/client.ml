module Version = Cc_types.Version
module Outcome = Cc_types.Outcome
module Net = Simnet.Net
module Engine = Sim.Engine

type commit_state = {
  mutable cs_groups : int list;  (** participants still to ack *)
  mutable cs_max_ts : int;
  mutable cs_failed : bool;
}

(* Follower-read state ([Config.max_staleness_us > 0] only): snapshot
   reads rotate across the whole group instead of pinning the leader. *)
type fr_state = {
  mutable fr_stale_us : int;  (** clock − ro_ts at begin: the pin staleness *)
  mutable fr_saw_stale : bool;
  mutable fr_doomed : Obs.Abort_reason.t option;
      (** set when every redirect is exhausted; reads then resolve
          immediately so the body still reaches [commit], which reports
          the typed abort *)
  fr_redirect : int array;  (** per-group replica-rotation offset *)
}

type txn = {
  id : Version.t;  (** wound-wait priority *)
  ro : bool;
  ro_id : int;
  ro_ts : int;  (** snapshot timestamp for read-only transactions *)
  frs : fr_state option;
  mutable reads : (string * Version.t) list;
  mutable read_vals : (string * string) list;
  mutable writes : (string * string) list;  (** reverse program order *)
  mutable pending : (int * pend) list;
  mutable next_seq : int;
  mutable doomed : bool;  (** wounded somewhere *)
  mutable finished : bool;
  mutable commit_cont : (Outcome.t -> unit) option;
  mutable commit_state : commit_state option;
  t_start_us : int;
  (* Observability: currently open phase segment and accumulated
     per-phase virtual time.  [`Fin] covers TrueTime commit-wait. *)
  mutable seg : [ `Exec | `Prep | `Fin ];
  mutable ph_start_us : int;
  mutable exec_us : int;
  mutable prep_us : int;
  mutable fin_us : int;
}

and pend = {
  pd_sent : int;
  pd_key : string;
  mutable pd_tries : int;  (** redirects so far (follower reads) *)
  pd_cont : ctx -> string -> unit;
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
  cfg : Config.t;
  engine : Engine.t;
  net : Msg.t Net.t;
  clock : Sim.Clock.t;
  rng : Sim.Rng.t;
  node : Net.node;
  leaders : int array;
  groups : int array array;  (** full membership per group, leader first *)
  closest_ix : int array;  (** per group: index of the closest replica *)
  partition : string -> int;
  mutable last_ts : int;
  mutable last_commit_ts : int;
  mutable next_ro_id : int;
  txns : (Version.t, txn) Hashtbl.t;
  ro_txns : (int, txn) Hashtbl.t;
  stats : stats;
  obs : Obs.Bus.t;
  (* Latency-decomposition state for the transaction this (closed-loop)
     client is currently driving; see Obs.Profile. *)
  mutable c_cur : txn option;
  mutable c_comps : int array;
  mutable c_last_ev : int;
  on_finish : (record -> unit) option;
}

let node t = t.node
let stats t = t.stats
let last_comps t = t.c_comps

let send t dst msg = Net.send t.net ~src:t.node ~dst msg

let phase_row txn =
  match txn.seg with
  | `Exec -> Obs.Profile.phase_index Obs.Profile.P_execute
  | `Prep -> Obs.Profile.phase_index Obs.Profile.P_prepare
  | `Fin -> Obs.Profile.phase_index Obs.Profile.P_finalize

(* Charge the wait interval that just ended to the current transaction's
   phase, splitting it along the ending message's provenance chain.
   TrueTime commit-wait ends on a timer, so it lands in the finalize
   phase's protocol-wait cell. *)
let profile_wait t reply =
  match t.c_cur with
  | None -> ()
  | Some txn ->
    let now = Engine.now t.engine in
    Obs.Profile.attribute ~comps:t.c_comps ~phase:(phase_row txn)
      ~t0:t.c_last_ev ~t1:now reply;
    t.c_last_ev <- now

let profile_arrival t =
  let reply =
    match Net.current_delivery t.net with
    | Some d ->
      Some
        (d.Net.di_send_us, d.di_path.Net.p_transit_us,
         d.di_path.Net.p_queue_us, d.di_path.Net.p_service_us)
    | None -> None
  in
  profile_wait t reply

(* --- Observability helpers --------------------------------------------- *)

let emit t ev = Obs.Bus.emit t.obs ~ts:(Engine.now t.engine) ~pid:t.node ev

(* Observers key a transaction by its begin version — the id replicas
   see on lock/prepare traffic — not its commit version.  [span:false]
   is a user abort, which records no [txn] span. *)
let emit_finish t txn ~abort ~span =
  if Obs.Bus.on t.obs then
    emit t
      (Obs.Bus.Finish
         { ver = Version.to_pair txn.id; start_us = txn.t_start_us; abort;
           reexecs = None; work_us = txn.exec_us + txn.prep_us + txn.fin_us;
           final_eid = 0; span })

let emit_begin t txn ~ro =
  if Obs.Bus.on t.obs then
    emit t (Obs.Bus.Begin { ver = Version.to_pair txn.id; ro })

(* Close the open phase segment, credit its duration, emit its span, and
   open [next]. *)
let switch_segment t txn next =
  let now = Engine.now t.engine in
  let dur = now - txn.ph_start_us in
  let name =
    match txn.seg with
    | `Exec ->
      txn.exec_us <- txn.exec_us + dur;
      "execute"
    | `Prep ->
      txn.prep_us <- txn.prep_us + dur;
      "prepare"
    | `Fin ->
      txn.fin_us <- txn.fin_us + dur;
      "finalize"
  in
  if Obs.Bus.on t.obs then
    emit t
      (Obs.Bus.Phase
         { ver = Version.to_pair txn.id; name; start_us = txn.ph_start_us;
           eid = None });
  txn.ph_start_us <- now;
  txn.seg <- next

let participants t txn =
  let tbl = Hashtbl.create 4 in
  List.iter (fun (k, _) -> Hashtbl.replace tbl (t.partition k) ()) txn.reads;
  List.iter (fun (k, _) -> Hashtbl.replace tbl (t.partition k) ()) txn.read_vals;
  List.iter (fun (k, _) -> Hashtbl.replace tbl (t.partition k) ()) txn.writes;
  Hashtbl.fold (fun g () acc -> g :: acc) tbl []

let finish t txn ~ver outcome =
  if not txn.finished then begin
    txn.finished <- true;
    (match t.c_cur with
    | Some cur when cur == txn ->
      profile_wait t None;
      t.c_cur <- None
    | Some _ | None -> ());
    switch_segment t txn txn.seg;
    Hashtbl.remove t.txns txn.id;
    if txn.ro then Hashtbl.remove t.ro_txns txn.ro_id;
    (match outcome with
     | Outcome.Committed -> t.stats.committed <- t.stats.committed + 1
     | Outcome.Aborted _ -> t.stats.aborted <- t.stats.aborted + 1);
    emit_finish t txn ~abort:(Outcome.reason outcome) ~span:true;
    (match t.on_finish with
     | Some f ->
       f
         {
           Cc_types.Txn_record.h_ver = ver;
           h_committed = Outcome.is_committed outcome;
           h_abort = Outcome.reason outcome;
           h_reads = List.rev txn.reads;
           h_writes = List.rev_map fst txn.writes;
           h_start_us = txn.t_start_us;
           h_end_us = Engine.now t.engine;
           h_exec_us = txn.exec_us;
           h_prepare_us = txn.prep_us;
           h_finalize_us = txn.fin_us;
           h_ro = txn.ro;
           h_staleness_us =
             (match txn.frs with Some fr -> fr.fr_stale_us | None -> 0);
         }
     | None -> ());
    match txn.commit_cont with Some cont -> cont outcome | None -> ()
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
let history_label t txn = Version.make ~ts:txn.id.Version.ts ~id:(-(t.node + 1))

let abort_txn t txn =
  List.iter
    (fun g -> send t t.leaders.(g) (Msg.Abort2pc { txn = txn.id }))
    (participants t txn);
  (* Every Spanner protocol abort is a lock conflict: a wound-wait wound,
     a prepare nack, or a commit by an already-doomed transaction. *)
  finish t txn ~ver:(history_label t txn)
    (Outcome.Aborted Obs.Abort_reason.Lock_conflict)

(* --- Message handling ----------------------------------------------------- *)

let deliver_read t txn (p : pend) key w_ver value seq =
  txn.pending <- List.remove_assoc seq txn.pending;
  txn.reads <- (key, w_ver) :: txn.reads;
  txn.read_vals <- (key, value) :: txn.read_vals;
  if Obs.Bus.on t.obs then
    emit t
      (Obs.Bus.Read
         { ver = Version.to_pair txn.id; key; from = Version.to_pair w_ver;
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
  let commit_ver = Version.make ~ts:commit_ts ~id:t.node in
  let wait =
    max 0 (commit_ts + t.cfg.truetime_eps_us - Sim.Clock.read t.clock)
  in
  if txn.seg = `Prep then switch_segment t txn `Fin;
  ignore
    (Engine.schedule t.engine ~after:wait (fun () ->
         List.iter
           (fun g -> send t t.leaders.(g) (Msg.Commit2pc { txn = txn.id; commit_ver }))
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

let fr_attempt_cap t = max (2 * Config.n_replicas t.cfg) 6

(* Every redirect path is exhausted: release the outstanding reads with
   empty values so the body's CPS chain still reaches [commit] (the
   closed-loop driver blocks on its outcome continuation), where the
   typed abort is reported. *)
let fr_doom txn (fr : fr_state) reason =
  if fr.fr_doomed = None && not txn.finished then begin
    fr.fr_doomed <- Some reason;
    let pend = List.sort (fun (a, _) (b, _) -> compare a b) txn.pending in
    txn.pending <- [];
    List.iter (fun (_, (p : pend)) -> p.pd_cont { c_txn = txn } "") pend
  end

let rec fr_send_read t txn (fr : fr_state) seq (p : pend) =
  let g = t.partition p.pd_key in
  let members = t.groups.(g) in
  let n = Array.length members in
  let dst = members.((t.closest_ix.(g) + fr.fr_redirect.(g)) mod n) in
  send t dst (Msg.Ro_read { ro_id = txn.ro_id; key = p.pd_key; ts = txn.ro_ts; seq });
  let tries = p.pd_tries in
  ignore
    (Engine.schedule t.engine ~after:t.cfg.prepare_timeout_us (fun () ->
         (* Unchanged [pd_tries] means no reply and no redirect landed in
            the meantime: treat the replica as unreachable. *)
         if
           (not txn.finished) && fr.fr_doomed = None && p.pd_tries = tries
           && List.mem_assoc seq txn.pending
         then fr_redirect_read t txn fr seq p))

and fr_redirect_read t txn (fr : fr_state) seq (p : pend) =
  if (not txn.finished) && fr.fr_doomed = None then begin
    p.pd_tries <- p.pd_tries + 1;
    if p.pd_tries >= fr_attempt_cap t then
      fr_doom txn fr
        (if fr.fr_saw_stale then Obs.Abort_reason.Stale_replica
         else Obs.Abort_reason.Timeout)
    else begin
      let g = t.partition p.pd_key in
      fr.fr_redirect.(g) <- fr.fr_redirect.(g) + 1;
      let wait =
        Sim.Backoff.full_jitter t.rng ~base_us:5_000 ~cap_us:160_000
          ~attempt:p.pd_tries
      in
      ignore
        (Engine.schedule t.engine ~after:wait (fun () ->
             if
               (not txn.finished) && fr.fr_doomed = None
               && List.mem_assoc seq txn.pending
             then fr_send_read t txn fr seq p))
    end
  end

let handle_ro_stale t ro_id seq =
  match Hashtbl.find_opt t.ro_txns ro_id with
  | None -> ()
  | Some txn -> (
    match txn.frs with
    | None -> ()
    | Some fr -> (
      if txn.finished || fr.fr_doomed <> None then ()
      else
        match List.assoc_opt seq txn.pending with
        | None -> ()
        | Some p ->
          fr.fr_saw_stale <- true;
          fr_redirect_read t txn fr seq p))

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
  let node = Net.add_node net ~region in
  let groups =
    match groups with
    | Some gs -> gs
    | None -> Array.map (fun l -> [| l |]) leaders
  in
  let closest_ix =
    Array.map
      (fun members ->
        let ix = ref 0 and found = ref false in
        Array.iteri
          (fun i r ->
            if (not !found) && Net.region_of net r = region then begin
              found := true;
              ix := i
            end)
          members;
        !ix)
      groups
  in
  let t =
    {
      cfg; engine; net;
      clock = Sim.Clock.create engine rng ~max_skew:cfg.max_clock_skew_us;
      rng;
      node; leaders; groups; closest_ix; partition;
      last_ts = 0;
      last_commit_ts = 0;
      next_ro_id = 0;
      txns = Hashtbl.create 16;
      ro_txns = Hashtbl.create 16;
      stats = { begun = 0; committed = 0; aborted = 0; ro_begun = 0; wounds_received = 0 };
      obs;
      c_cur = None;
      c_comps = Array.make Obs.Profile.n_cells 0;
      c_last_ev = 0;
      on_finish;
    }
  in
  (* Provenance feeds only the profiler: skip it when none is attached. *)
  Net.set_handler net node (fun ~src msg ->
      if Obs.Bus.profiling t.obs then profile_arrival t;
      handle t ~src msg);
  t

let fresh_txn t ~ro ~frs =
  let ts = max (Sim.Clock.read t.clock) (t.last_ts + 1) in
  t.last_ts <- ts;
  let ro_id = t.next_ro_id in
  if ro then t.next_ro_id <- ro_id + 1;
  let now = Engine.now t.engine in
  {
    id = Version.make ~ts ~id:t.node;
    ro;
    ro_id;
    ro_ts =
      (* Clamp at 0 under follower reads: in the first eps of a run
         [ts - eps] is negative, i.e. below any replica's initial safe
         timestamp, and nothing precedes the epoch anyway. *)
      (if frs <> None then max 0 (ts - t.cfg.truetime_eps_us)
       else ts - t.cfg.truetime_eps_us);
    frs;
    reads = [];
    read_vals = [];
    writes = [];
    pending = [];
    next_seq = 0;
    doomed = false;
    finished = false;
    commit_cont = None;
    commit_state = None;
    t_start_us = now;
    seg = `Exec;
    ph_start_us = now;
    exec_us = 0;
    prep_us = 0;
    fin_us = 0;
  }

let track t txn =
  t.c_cur <- Some txn;
  t.c_comps <- Array.make Obs.Profile.n_cells 0;
  t.c_last_ev <- txn.t_start_us

let begin_ t body =
  let txn = fresh_txn t ~ro:false ~frs:None in
  Hashtbl.replace t.txns txn.id txn;
  t.stats.begun <- t.stats.begun + 1;
  track t txn;
  emit_begin t txn ~ro:false;
  body { c_txn = txn }

let begin_ro t body =
  let frs =
    if t.cfg.max_staleness_us <= 0 then None
    else
      Some
        {
          (* The snapshot is pinned at begin: ro_ts = ts − eps, so its
             staleness is the TrueTime uncertainty plus clock skew. *)
          fr_stale_us = 0;  (* patched below once ro_ts is known *)
          fr_saw_stale = false;
          fr_doomed = None;
          fr_redirect = Array.make (Array.length t.groups) 0;
        }
  in
  let txn = fresh_txn t ~ro:true ~frs in
  (match frs with
  | None -> ()
  | Some fr ->
    let stale = max 0 (Sim.Clock.read t.clock - txn.ro_ts) in
    fr.fr_stale_us <- stale;
    if Obs.Bus.monitoring t.obs then
      emit t
        (Obs.Bus.State
           (Obs.Monitor.Ro_pin
              {
                replica = Printf.sprintf "c%d" t.node;
                snap = (txn.ro_ts, 0);
                wm = (0, min_int);
                staleness_us = stale;
                bound_us = t.cfg.max_staleness_us;
              })));
  Hashtbl.replace t.ro_txns txn.ro_id txn;
  t.stats.begun <- t.stats.begun + 1;
  t.stats.ro_begun <- t.stats.ro_begun + 1;
  track t txn;
  emit_begin t txn ~ro:true;
  body { c_txn = txn }

let do_get t ctx key cont ~mode =
  let txn = ctx.c_txn in
  if txn.finished then ()
  else
    match List.assoc_opt key txn.writes with
    | Some v -> cont ctx v
    | None -> (
      match List.assoc_opt key txn.read_vals with
      | Some v when mode = `Read -> cont ctx v
      | Some _ | None -> (
        match txn.frs with
        | Some fr when fr.fr_doomed <> None -> cont ctx ""
        | frs ->
          let seq = txn.next_seq in
          txn.next_seq <- seq + 1;
          let p =
            { pd_sent = Engine.now t.engine; pd_key = key; pd_tries = 0;
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
              | `Read -> send t leader (Msg.Lock_read { txn = txn.id; key; seq })
              | `Write -> send t leader (Msg.Lock_write { txn = txn.id; key; seq })))))

let get t ctx key cont = do_get t ctx key cont ~mode:`Read

let get_for_update t ctx key cont = do_get t ctx key cont ~mode:`Write

let put _t ctx key value =
  let txn = ctx.c_txn in
  if (not txn.finished) && not txn.ro then txn.writes <- (key, value) :: txn.writes;
  ctx

let abort t ctx =
  let txn = ctx.c_txn in
  if not txn.finished then begin
    txn.finished <- true;
    (match t.c_cur with
    | Some cur when cur == txn ->
      profile_wait t None;
      t.c_cur <- None
    | Some _ | None -> ());
    Hashtbl.remove t.txns txn.id;
    if txn.ro then Hashtbl.remove t.ro_txns txn.ro_id;
    t.stats.aborted <- t.stats.aborted + 1;
    emit_finish t txn ~abort:(Some Obs.Abort_reason.User_abort) ~span:false;
    (* Release any locks acquired during execution. *)
    if not txn.ro then
      List.iter
        (fun g -> send t t.leaders.(g) (Msg.Abort2pc { txn = txn.id }))
        (participants t txn)
  end

let commit t ctx cont =
  let txn = ctx.c_txn in
  if txn.finished then ()
  else begin
    txn.commit_cont <- Some cont;
    if txn.ro then (
      (* Snapshot reads commit unilaterally — unless every replica of
         some group was unreachable or too stale. *)
      match txn.frs with
      | Some { fr_doomed = Some reason; _ } ->
        finish t txn ~ver:(history_label t txn) (Outcome.Aborted reason)
      | Some _ | None ->
        finish t txn ~ver:(history_label t txn) Outcome.Committed)
    else if txn.doomed then abort_txn t txn
    else if txn.writes = [] then begin
      (* Read-only 2PL transaction: just release the read locks. *)
      List.iter
        (fun g -> send t t.leaders.(g) (Msg.Abort2pc { txn = txn.id }))
        (participants t txn);
      finish t txn ~ver:(history_label t txn) Outcome.Committed
    end
    else begin
      let parts = participants t txn in
      let cs = { cs_groups = parts; cs_max_ts = 0; cs_failed = false } in
      switch_segment t txn `Prep;
      txn.commit_state <- Some cs;
      let dedup =
        let seen = Hashtbl.create 8 in
        List.filter
          (fun (k, _) ->
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          txn.writes
      in
      List.iter
        (fun g ->
          let writes = List.filter (fun (k, _) -> t.partition k = g) dedup in
          send t t.leaders.(g) (Msg.Prepare2pc { txn = txn.id; writes }))
        parts
    end
  end
