module Version = Cc_types.Version
module Net = Simnet.Net
module Cpu = Simnet.Cpu
module Engine = Sim.Engine

type prepared_txn = { pr_ts : int; pr_writes : (string * string) list }

type pending_prep = {
  pp_client : Net.node;
  pp_writes : (string * string) list;
  mutable pp_needed : int;  (** write locks still queued *)
}

type stats = {
  mutable wounds : int;
  mutable prepares : int;
  mutable nacks : int;
  mutable ro_reads : int;
  mutable lock_waits : int;
}

type t = {
  cfg : Config.t;
  engine : Engine.t;
  net : Msg.t Net.t;
  clock : Sim.Clock.t;
  group : int;
  index : int;
  node : Net.node;
  cpu : Cpu.t;
  obs : Obs.Bus.t;
  mutable peers : int array;
  locks : Lock_table.t;
  store : (string, string Version.Map.t ref) Hashtbl.t;
  prepared : (Version.t, prepared_txn) Hashtbl.t;
  (* Lock requests waiting for a grant: (txn, key) -> how to reply. *)
  pending_locks : (Version.t * string, int * Net.node) Hashtbl.t;
  pending_preps : (Version.t, pending_prep) Hashtbl.t;
  client_of : (Version.t, Net.node) Hashtbl.t;
  wounded : (Version.t, unit) Hashtbl.t;
  (* Transactions already aborted/committed at this leader: a Paxos
     prepare completing after an Abort2pc must not resurrect the
     transaction into the prepared set (it would freeze safe time). *)
  finished : (Version.t, unit) Hashtbl.t;
  (* Paxos emulation: log index -> (action on majority, acks so far). *)
  mutable log_index : int;
  paxos_waiting : (int, (unit -> unit) * int ref) Hashtbl.t;
  (* Read-only requests waiting for safe time. *)
  mutable ro_waiting : (int * (unit -> unit)) list;  (* (ts, serve) *)
  mutable last_prepare_ts : int;
  mutable max_commit_ts : int;
  stats : stats;
  mutable stopped : bool;
  (* Follower reads (leader side): applies are numbered so followers can
     detect gaps, and logged for replay when max_staleness_us > 0. *)
  mutable apply_seq : int;
  apply_log : (int, (string * string) list * Version.t * int) Hashtbl.t;
  (* Follower reads (follower side): highest gap-free apply, buffered
     out-of-order applies, and the safe time those applies support. *)
  mutable applied_seq : int;
  apply_buf : (int, (string * string) list * Version.t * int) Hashtbl.t;
  mutable follower_safe_ts : int;  (* -1 = none yet *)
}

let node t = t.node
let cpu t = t.cpu
let is_leader t = t.index = 0
let follower_safe_ts t = t.follower_safe_ts
let stats t = t.stats
let stop t = t.stopped <- true
let is_stopped t = t.stopped
let set_peers t peers = t.peers <- peers
let waiting_locks t = Lock_table.waiting t.locks

(* --- Observation ---------------------------------------------------------- *)

let mon_label t = Printf.sprintf "g%dr%d" t.group t.index
let emit t ev = Obs.Bus.emit t.obs ~ts:(Engine.now t.engine) ~pid:t.node ev
let observe t tr = emit t (Obs.Bus.State tr)

let observe_install t key ver =
  if Obs.Bus.monitoring t.obs then
    observe t
      (Obs.Monitor.Commit_install
         { replica = mon_label t; key; ver = Version.to_pair ver })

(* A lock request for [txn] on [key] queued behind a holder. *)
let note_lock_wait t txn key =
  t.stats.lock_waits <- t.stats.lock_waits + 1;
  if Obs.Bus.on t.obs then
    emit t
      (Obs.Bus.Blame
         { ver = Version.to_pair txn; key; conflict = true; abort_key = false;
           lineage = None })

(* Report a lock grant together with the key's resulting holder sets, so
   the monitor can check mutual exclusion independently of the table's
   own bookkeeping. *)
let observe_grant t ~txn ~key ~(mode : Lock_table.mode) =
  if Obs.Bus.monitoring t.obs then begin
    let writer, readers = Lock_table.holders t.locks ~key in
    observe t
      (Obs.Monitor.Lock_grant
         {
           replica = mon_label t;
           key;
           txn = Version.to_pair txn;
           mode = (match mode with Lock_table.Read -> Obs.Monitor.Read
                                 | Lock_table.Write -> Obs.Monitor.Write);
           writer = Option.map Version.to_pair writer;
           readers = List.map Version.to_pair readers;
         })
  end

let versions t key =
  match Hashtbl.find_opt t.store key with
  | Some m -> m
  | None ->
    let m = ref Version.Map.empty in
    Hashtbl.replace t.store key m;
    m

let latest t key =
  match Hashtbl.find_opt t.store key with
  | None -> (Version.zero, "")
  | Some m -> (
    match Version.Map.max_binding_opt !m with
    | Some (v, value) -> (v, value)
    | None -> (Version.zero, ""))

let latest_below t key bound =
  match Hashtbl.find_opt t.store key with
  | None -> (Version.zero, "")
  | Some m -> (
    match
      Version.Map.find_last_opt (fun v -> Version.compare v bound < 0) !m
    with
    | Some (v, value) -> (v, value)
    | None -> (Version.zero, ""))

let read_current t key =
  match latest t key with
  | v, value when (not (Version.is_zero v)) || not (String.equal value "") ->
    Some value
  | _ -> None

let load t pairs =
  List.iter
    (fun (key, value) ->
      let m = versions t key in
      m := Version.Map.add Version.zero value !m)
    pairs

let send t dst msg = if not t.stopped then Net.send t.net ~src:t.node ~dst msg

(* --- Paxos emulation ---------------------------------------------------- *)

(* Replicate a record to followers; run [k] once a majority (f acks plus
   the leader itself) holds it. *)
let paxos_replicate t k =
  t.log_index <- t.log_index + 1;
  let idx = t.log_index in
  Hashtbl.replace t.paxos_waiting idx (k, ref 0);
  Array.iteri
    (fun i dst ->
      if i <> t.index then send t dst (Msg.Paxos_accept { group = t.group; log_index = idx }))
    t.peers

let handle_paxos_ack t idx =
  match Hashtbl.find_opt t.paxos_waiting idx with
  | None -> ()
  | Some (k, acks) ->
    incr acks;
    if !acks >= t.cfg.f then begin
      Hashtbl.remove t.paxos_waiting idx;
      k ()
    end

(* --- Safe time for read-only transactions -------------------------------- *)

let safe_time t =
  let min_prepared =
    Hashtbl.fold (fun _ p acc -> min acc p.pr_ts) t.prepared max_int
  in
  min (min_prepared - 1) (Sim.Clock.read t.clock - t.cfg.max_clock_skew_us)

let rec check_ro_queue t =
  let safe = safe_time t in
  let serve, wait = List.partition (fun (ts, _) -> ts <= safe) t.ro_waiting in
  t.ro_waiting <- wait;
  List.iter (fun (_, k) -> k ()) serve;
  if wait <> [] then
    (* Clock-bound waiters become servable as time passes. *)
    ignore (Engine.schedule t.engine ~after:1_000 (fun () -> check_ro_queue t))

(* --- Wound-wait plumbing -------------------------------------------------- *)

let next_prepare_ts t =
  let ts =
    max (Sim.Clock.read t.clock) (max (t.last_prepare_ts + 1) (t.max_commit_ts + 1))
  in
  t.last_prepare_ts <- ts;
  ts

(* Reply to a granted (or force-completed) lock request with the current
   committed value. *)
let answer_lock t txn key =
  match Hashtbl.find_opt t.pending_locks (txn, key) with
  | None -> ()
  | Some (seq, client) ->
    Hashtbl.remove t.pending_locks (txn, key);
    let w_ver, value = latest t key in
    send t client (Msg.Lock_reply { txn; key; value; w_ver; seq })

let rec deliver_grants t grants =
  List.iter
    (fun (g : Lock_table.grant) ->
      (* A grant either answers a waiting read/write lock request or
         makes progress on a pending prepare's write-lock set. *)
      observe_grant t ~txn:g.g_txn ~key:g.g_key ~mode:g.g_mode;
      answer_lock t g.g_txn g.g_key;
      match Hashtbl.find_opt t.pending_preps g.g_txn with
      | Some pp ->
        pp.pp_needed <- pp.pp_needed - 1;
        if pp.pp_needed = 0 then begin
          Hashtbl.remove t.pending_preps g.g_txn;
          finish_prepare t g.g_txn pp
        end
      | None -> ())
    grants

and wound t victim =
  if not (Hashtbl.mem t.wounded victim) then begin
    t.stats.wounds <- t.stats.wounds + 1;
    Hashtbl.replace t.wounded victim ();
    (* Answer the victim's queued lock requests (without locks) so its
       client's control flow completes; the transaction is doomed and
       will abort at commit. *)
    let victim_pending =
      Hashtbl.fold
        (fun (txn, key) _ acc -> if Version.equal txn victim then key :: acc else acc)
        t.pending_locks []
    in
    List.iter (fun key -> answer_lock t victim key) victim_pending;
    (match Hashtbl.find_opt t.pending_preps victim with
     | Some pp ->
       Hashtbl.remove t.pending_preps victim;
       t.stats.nacks <- t.stats.nacks + 1;
       send t pp.pp_client (Msg.Prepare_nack { txn = victim; group = t.group })
     | None -> ());
    (match Hashtbl.find_opt t.client_of victim with
     | Some client -> send t client (Msg.Wounded { txn = victim })
     | None -> ());
    let grants, wounded = Lock_table.release_all t.locks ~txn:victim ~is_immune:(is_immune t) in
    List.iter (fun v -> wound t v) wounded;
    deliver_grants t grants
  end

and is_immune t v = Hashtbl.mem t.prepared v

and acquire_lock t ~txn ~key ~mode =
  let status, wounded = Lock_table.acquire t.locks ~txn ~key ~mode ~is_immune:(is_immune t) in
  (* The acquiring transaction is the aggressor: its higher priority
     wounds each victim's lock hold on [key], one abort blame on [key]
     in all. *)
  if Obs.Bus.on t.obs then
    List.iteri
      (fun i v ->
        emit t
          (Obs.Bus.Blame
             { ver = Version.to_pair v; key; conflict = false; abort_key = (i = 0);
               lineage = Some (Version.to_pair txn, "wound") }))
      wounded;
  List.iter (fun v -> wound t v) wounded;
  (match status with
   | `Granted -> observe_grant t ~txn ~key ~mode
   | `Queued -> ());
  status

and finish_prepare t txn (pp : pending_prep) =
  (* All write locks held: replicate the prepare record, then ack. *)
  let ts = next_prepare_ts t in
  t.stats.prepares <- t.stats.prepares + 1;
  paxos_replicate t (fun () ->
      if (not (Hashtbl.mem t.wounded txn)) && not (Hashtbl.mem t.finished txn)
      then begin
        Hashtbl.replace t.prepared txn { pr_ts = ts; pr_writes = pp.pp_writes };
        if Obs.Bus.monitoring t.obs then
          observe t
            (Obs.Monitor.Record_count
               { replica = mon_label t; count = Hashtbl.length t.prepared });
        send t pp.pp_client (Msg.Prepare_ack { txn; group = t.group; prepare_ts = ts })
      end
      else begin
        t.stats.nacks <- t.stats.nacks + 1;
        send t pp.pp_client (Msg.Prepare_nack { txn; group = t.group })
      end)

(* --- Message handlers ------------------------------------------------------ *)

let handle_lock t ~src txn key seq mode =
  Hashtbl.replace t.client_of txn src;
  if Hashtbl.mem t.wounded txn then begin
    (* Doomed transaction: complete its control flow lock-free. *)
    let w_ver, value = latest t key in
    send t src (Msg.Lock_reply { txn; key; value; w_ver; seq })
  end
  else begin
    Hashtbl.replace t.pending_locks (txn, key) (seq, src);
    match acquire_lock t ~txn ~key ~mode with
    | `Granted -> answer_lock t txn key
    | `Queued -> note_lock_wait t txn key
  end

let handle_prepare2pc t ~src txn writes =
  Hashtbl.replace t.client_of txn src;
  if Hashtbl.mem t.wounded txn || Hashtbl.mem t.finished txn then begin
    t.stats.nacks <- t.stats.nacks + 1;
    send t src (Msg.Prepare_nack { txn; group = t.group })
  end
  else begin
    let pp = { pp_client = src; pp_writes = writes; pp_needed = 0 } in
    (* Acquire (or upgrade to) write locks on every written key. *)
    let queued = ref 0 in
    List.iter
      (fun (key, _) ->
        match acquire_lock t ~txn ~key ~mode:Lock_table.Write with
        | `Granted -> ()
        | `Queued ->
          note_lock_wait t txn key;
          incr queued)
      writes;
    (* Wounding inside acquire_lock may have wounded [txn] itself?  No:
       wound-wait only wounds lock *holders*, and a transaction never
       conflicts with itself. *)
    if !queued = 0 then finish_prepare t txn pp
    else begin
      pp.pp_needed <- !queued;
      Hashtbl.replace t.pending_preps txn pp;
      (* Cross-leader 2PC deadlocks (both sides blocked on prepared,
         immune participants) are broken by a timeout. *)
      ignore
        (Engine.schedule t.engine ~after:t.cfg.prepare_timeout_us (fun () ->
             if Hashtbl.mem t.pending_preps txn then wound t txn))
    end
  end

let cleanup_txn t txn =
  Hashtbl.replace t.finished txn ();
  Hashtbl.remove t.prepared txn;
  Hashtbl.remove t.pending_preps txn;
  Hashtbl.remove t.client_of txn;
  Hashtbl.remove t.wounded txn;
  let grants, wounded = Lock_table.release_all t.locks ~txn ~is_immune:(is_immune t) in
  List.iter (fun v -> wound t v) wounded;
  deliver_grants t grants;
  check_ro_queue t

let handle_commit2pc t txn commit_ver =
  match Hashtbl.find_opt t.prepared txn with
  | None -> ()
  | Some p ->
    (* Replicate the commit record; then apply, release locks, and ship
       the writes to followers. *)
    paxos_replicate t (fun () ->
        List.iter
          (fun (key, value) ->
            let m = versions t key in
            m := Version.Map.add commit_ver value !m;
            observe_install t key commit_ver)
          p.pr_writes;
        t.max_commit_ts <- max t.max_commit_ts commit_ver.Version.ts;
        t.apply_seq <- t.apply_seq + 1;
        let seq = t.apply_seq in
        (* The safe time shipped with an apply is computed after the
           install above, so a gap-free follower at [seq] holds every
           commit with timestamp <= safe_ts. *)
        let safe_ts = safe_time t in
        if t.cfg.max_staleness_us > 0 then
          Hashtbl.replace t.apply_log seq (p.pr_writes, commit_ver, safe_ts);
        Array.iteri
          (fun i dst ->
            if i <> t.index then
              send t dst
                (Msg.Apply { seq; safe_ts; writes = p.pr_writes; commit_ver }))
          t.peers;
        cleanup_txn t txn)

let handle_ro_read t ~src ro_id key ts seq =
  t.stats.ro_reads <- t.stats.ro_reads + 1;
  let serve () =
    let w_ver, value = latest_below t key (Version.make ~ts ~id:max_int) in
    send t src (Msg.Ro_reply { ro_id; key; w_ver; value; seq })
  in
  if is_leader t then
    (* Leader: safe time always catches up, so queue rather than bounce. *)
    if ts <= safe_time t then serve ()
    else begin
      t.ro_waiting <- (ts, serve) :: t.ro_waiting;
      ignore (Engine.schedule t.engine ~after:1_000 (fun () -> check_ro_queue t))
    end
  else if ts <= t.follower_safe_ts then begin
    if Obs.Bus.monitoring t.obs then
      observe t
        (Obs.Monitor.Ro_serve
           { replica = mon_label t; key; snap = (ts, 0); wm = (0, min_int) });
    serve ()
  end
  else send t src (Msg.Ro_stale { ro_id; seq })

(* --- Follower apply stream (follower reads) ------------------------------- *)

let apply_writes t writes commit_ver =
  List.iter
    (fun (key, value) ->
      let m = versions t key in
      m := Version.Map.add commit_ver value !m;
      observe_install t key commit_ver)
    writes

(* Install every buffered apply that extends the gap-free prefix; the
   safe time advances with the newest installed entry. *)
let drain_applies t =
  let rec go () =
    match Hashtbl.find_opt t.apply_buf (t.applied_seq + 1) with
    | None -> ()
    | Some (writes, commit_ver, safe_ts) ->
      Hashtbl.remove t.apply_buf (t.applied_seq + 1);
      t.applied_seq <- t.applied_seq + 1;
      apply_writes t writes commit_ver;
      t.follower_safe_ts <- max t.follower_safe_ts safe_ts;
      go ()
  in
  go ()

let handle_apply t seq safe_ts writes commit_ver =
  if t.cfg.max_staleness_us = 0 then apply_writes t writes commit_ver
  else begin
    if seq > t.applied_seq then
      Hashtbl.replace t.apply_buf seq (writes, commit_ver, safe_ts);
    drain_applies t
  end

let handle_apply_hb t ~src last_seq safe_ts =
  drain_applies t;
  if t.applied_seq >= last_seq then
    t.follower_safe_ts <- max t.follower_safe_ts safe_ts
  else
    (* Heartbeat-paced catch-up keeps the request rate bounded even when
       a partition dropped a long run of applies. *)
    send t src (Msg.Apply_since { from_seq = t.applied_seq })

let handle_apply_since t ~src from_seq =
  for seq = from_seq + 1 to t.apply_seq do
    match Hashtbl.find_opt t.apply_log seq with
    | None -> ()
    | Some (writes, commit_ver, safe_ts) ->
      send t src (Msg.Apply { seq; safe_ts; writes; commit_ver })
  done

let handle t ~src msg =
  if t.stopped then ()
  else
  match msg with
  | Msg.Lock_read { txn; key; seq } -> handle_lock t ~src txn key seq Lock_table.Read
  | Msg.Lock_write { txn; key; seq } -> handle_lock t ~src txn key seq Lock_table.Write
  | Msg.Prepare2pc { txn; writes } -> handle_prepare2pc t ~src txn writes
  | Msg.Commit2pc { txn; commit_ver } -> handle_commit2pc t txn commit_ver
  | Msg.Abort2pc { txn } -> cleanup_txn t txn
  | Msg.Ro_read { ro_id; key; ts; seq } -> handle_ro_read t ~src ro_id key ts seq
  | Msg.Paxos_accept { group = _; log_index } ->
    (* Follower: acknowledge to the leader. *)
    send t t.peers.(0) (Msg.Paxos_ack { group = t.group; log_index })
  | Msg.Paxos_ack { group = _; log_index } -> handle_paxos_ack t log_index
  | Msg.Apply { seq; safe_ts; writes; commit_ver } ->
    handle_apply t seq safe_ts writes commit_ver
  | Msg.Apply_hb { last_seq; safe_ts } -> handle_apply_hb t ~src last_seq safe_ts
  | Msg.Apply_since { from_seq } -> handle_apply_since t ~src from_seq
  | Msg.Lock_reply _ | Msg.Wounded _ | Msg.Prepare_ack _ | Msg.Prepare_nack _
  | Msg.Ro_reply _ | Msg.Ro_stale _ -> ()

let service_cost t = function
  | Msg.Lock_read _ | Msg.Lock_write _ -> t.cfg.lock_cost_us
  | Msg.Prepare2pc _ -> t.cfg.prepare_cost_us
  | Msg.Commit2pc _ | Msg.Abort2pc _ -> t.cfg.commit_cost_us
  | Msg.Ro_read _ | Msg.Ro_stale _ -> t.cfg.ro_cost_us
  | Msg.Paxos_accept _ | Msg.Paxos_ack _ | Msg.Apply _ | Msg.Apply_hb _
  | Msg.Apply_since _ -> t.cfg.paxos_cost_us
  | Msg.Lock_reply _ | Msg.Wounded _ | Msg.Prepare_ack _ | Msg.Prepare_nack _
  | Msg.Ro_reply _ -> t.cfg.lock_cost_us

(* State transfer for amnesia-crash recovery.  Only followers are ever
   killed (the leader's lock table and prepared set have no replicated
   representation in this emulation — see EXPERIMENTS.md), so a snapshot
   is just the committed store.  Installing also advances the timestamp
   high-water marks past every transferred commit, preserving the
   monotonicity discipline should this replica ever serve as leader. *)
type snapshot = (string * (Version.t * string) list) list

let snapshot t =
  Hashtbl.fold
    (fun key m acc -> (key, Version.Map.bindings !m) :: acc)
    t.store []

let snapshot_bytes sn =
  List.fold_left
    (fun acc (key, vs) ->
      List.fold_left
        (fun acc (_, value) -> acc + String.length key + String.length value + 16)
        acc vs)
    0 sn

let install t sn =
  List.iter
    (fun (key, vs) ->
      let m = versions t key in
      List.iter
        (fun (v, value) ->
          m := Version.Map.add v value !m;
          t.max_commit_ts <- max t.max_commit_ts v.Version.ts;
          observe_install t key v)
        vs)
    sn;
  t.last_prepare_ts <- max t.last_prepare_ts t.max_commit_ts

(* The transaction version a message's CPU time serves (wasted-work
   ledger).  Read-only and Paxos/Apply traffic is infrastructure: RO
   transactions never waste work (lock-free snapshot reads) and
   replication records serve the group, not one transaction. *)
let busy_owner = function
  | Msg.Lock_read { txn; _ } | Msg.Lock_write { txn; _ }
  | Msg.Prepare2pc { txn; _ } | Msg.Commit2pc { txn; _ }
  | Msg.Abort2pc { txn } | Msg.Lock_reply { txn; _ } | Msg.Wounded { txn }
  | Msg.Prepare_ack { txn; _ } | Msg.Prepare_nack { txn; _ } ->
    Some (txn.Version.ts, txn.Version.id)
  | Msg.Ro_read _ | Msg.Ro_reply _ | Msg.Ro_stale _ | Msg.Paxos_accept _
  | Msg.Paxos_ack _ | Msg.Apply _ | Msg.Apply_hb _ | Msg.Apply_since _ -> None

let create_at ~node ~cfg ~engine ~net ~group ~index ~cores
    ?(obs = Obs.Bus.null ()) () =
  let t =
    {
      cfg; engine; net;
      clock = Sim.Clock.perfect engine;
      group; index; node;
      cpu = Cpu.create engine ~cores;
      obs;
      peers = [||];
      locks = Lock_table.create ();
      store = Hashtbl.create 1024;
      prepared = Hashtbl.create 64;
      pending_locks = Hashtbl.create 64;
      pending_preps = Hashtbl.create 64;
      client_of = Hashtbl.create 64;
      wounded = Hashtbl.create 64;
      finished = Hashtbl.create 1024;
      log_index = 0;
      paxos_waiting = Hashtbl.create 64;
      ro_waiting = [];
      last_prepare_ts = 0;
      max_commit_ts = 0;
      stats = { wounds = 0; prepares = 0; nacks = 0; ro_reads = 0; lock_waits = 0 };
      stopped = false;
      apply_seq = 0;
      apply_log = Hashtbl.create 256;
      applied_seq = 0;
      apply_buf = Hashtbl.create 64;
      follower_safe_ts = -1;
    }
  in
  (* Safe-time heartbeats exist only when follower reads are enabled, so
     the default configuration's event sequence is unchanged. *)
  if index = 0 && cfg.Config.max_staleness_us > 0 && cfg.Config.hb_interval_us > 0
  then begin
    let rec tick () =
      ignore
        (Engine.schedule t.engine ~after:cfg.Config.hb_interval_us (fun () ->
             if t.stopped then ()
             else begin
               let hb =
                 Msg.Apply_hb { last_seq = t.apply_seq; safe_ts = safe_time t }
               in
               Array.iteri
                 (fun i dst -> if i <> t.index then send t dst hb)
                 t.peers;
               tick ()
             end))
    in
    tick ()
  end;
  Net.set_handler net node (fun ~src msg ->
      let cost = service_cost t msg in
      if not (Obs.Bus.profiling t.obs) then
        Cpu.submit t.cpu ~cost (fun () -> handle t ~src msg)
      else begin
        let transit_us =
          match Net.current_delivery net with
          | Some d -> d.Net.di_recv_us - d.Net.di_send_us
          | None -> 0
        in
        Cpu.submit t.cpu ~cost
          ~prov:(fun ~queue_us ~start_us:_ ~end_us:_ ->
            emit t
              (Obs.Bus.Busy
                 { kind = Msg.label msg; ver = busy_owner msg; eid = 0;
                   cost_us = cost });
            Net.set_send_path net ~transit_us ~queue_us ~service_us:cost)
          (fun () ->
            handle t ~src msg;
            Net.clear_send_path net)
      end);
  t

let create ~cfg ~engine ~net ~group ~index ~region ~cores ?obs () =
  create_at ~node:(Net.add_node net ~region) ~cfg ~engine ~net ~group ~index
    ~cores ?obs ()

(* Per-replica introspection: protocol-agnostic snapshot for monitors
   and post-mortem bundles. *)
let state_view t =
  let versions_total =
    Hashtbl.fold (fun _ m acc -> acc + Version.Map.cardinal !m) t.store 0
  in
  {
    Obs.Monitor.v_replica = mon_label t;
    v_stopped = t.stopped;
    v_recovering = false;
    v_watermark =
      (if t.follower_safe_ts >= 0 then Some (t.follower_safe_ts, 0) else None);
    v_records = Hashtbl.length t.prepared;
    v_store_keys = Hashtbl.length t.store;
    v_store_versions = versions_total;
    v_counters =
      [
        ("prepares", t.stats.prepares);
        ("wounds", t.stats.wounds);
        ("nacks", t.stats.nacks);
        ("ro_reads", t.stats.ro_reads);
        ("lock_waits", t.stats.lock_waits);
        ("locks_waiting", Lock_table.waiting t.locks);
      ];
  }

let debug_counts t =
  ( Hashtbl.length t.prepared,
    Hashtbl.length t.pending_preps,
    List.length t.ro_waiting,
    Lock_table.waiting t.locks )

let prepared_count t = Hashtbl.length t.prepared
let store_size t = Hashtbl.length t.store
