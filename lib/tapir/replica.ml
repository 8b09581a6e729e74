module Version = Cc_types.Version
module Net = Simnet.Net
module Cpu = Simnet.Cpu

type prepared = {
  p_txn : Version.t;
  p_reads : (string * Version.t) list;
  p_writes : (string * string) list;
}

type stats = {
  mutable prepares : int;
  mutable commit_votes : int;
  mutable abort_votes : int;
}

(* Coordinator-side state of one enforcement-watermark round. *)
type wm_round_st = {
  wr_w : int;
  mutable wr_ok : Net.node list;
  mutable wr_commits : (string * Version.t * string) list;
}

type t = {
  cfg : Config.t;
  engine : Sim.Engine.t;
  net : Msg.t Net.t;
  group : int;
  index : int;
  mon_label : string;  (* this replica in monitor events, formatted once *)
  node : Net.node;
  cpu : Cpu.t;
  obs : Obs.Bus.t;
  (* Committed versions per key, newest accessible via find_last. *)
  store : (string, string Version.Map.t ref) Hashtbl.t;
  prepared : (Version.t, prepared) Hashtbl.t;
  (* Per-key prepared markers for O(1) conflict checks. *)
  prepared_reads : (string, Version.Set.t ref) Hashtbl.t;
  prepared_writes : (string, Version.Set.t ref) Hashtbl.t;
  stats : stats;
  mutable stopped : bool;
  (* Enforcement watermark (follower reads; -1 = none installed).
     [enforce_wm]: below it this replica votes abort on fresh prepares.
     [applied_wm]: every commit with ts <= applied_wm is in [store], so
     snapshots at or below it are complete. *)
  mutable enforce_wm : int;
  mutable applied_wm : int;
  mutable peers : Net.node array;  (* group members, index order *)
  mutable wm_round : int;
  wm_acks : (int, wm_round_st) Hashtbl.t;
}

let node t = t.node
let cpu t = t.cpu
let applied_wm t = t.applied_wm

let emit t ev = Obs.Bus.emit t.obs ~ts:(Sim.Engine.now t.engine) ~pid:t.node ev
let observe t tr = emit t (Obs.Bus.State tr)

let observe_install t key ver =
  if Obs.Bus.monitoring t.obs then
    observe t
      (Obs.Monitor.Commit_install
         { replica = t.mon_label; key; ver = Version.to_pair ver })

(* Witness IR operation classes: Prepare/Finalize run as consensus
   operations, Commit/Abort as inconsistent ones. *)
let observe_ir_op t op consensus =
  if Obs.Bus.monitoring t.obs then
    observe t (Obs.Monitor.Ir_op { replica = t.mon_label; op; consensus })
let stats t = t.stats
let prepared_count t = Hashtbl.length t.prepared
let store_size t = Hashtbl.length t.store
let stop t = t.stopped <- true
let is_stopped t = t.stopped

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

let marker table key =
  match Hashtbl.find_opt table key with
  | Some s -> s
  | None ->
    let s = ref Version.Set.empty in
    Hashtbl.replace table key s;
    s

let mark table key txn =
  let s = marker table key in
  s := Version.Set.add txn !s

let unmark table key txn =
  match Hashtbl.find_opt table key with
  | None -> ()
  | Some s -> s := Version.Set.remove txn !s

let other_holds table key txn =
  match Hashtbl.find_opt table key with
  | None -> false
  | Some s -> not (Version.Set.is_empty (Version.Set.remove txn !s))

let send t dst msg = if not t.stopped then Net.send t.net ~src:t.node ~dst msg

(* OCC validation: votes abort on any stale read or conflicting
   prepared/committed state. *)
let validate t txn reads writes =
  let ok = ref true in
  let fail key ~aggressor ~reason =
    ok := false;
    if Obs.Bus.on t.obs then
      emit t
        (Obs.Bus.Blame
           { ver = Version.to_pair txn; key; conflict = true; abort_key = true;
             lineage = Some (Version.to_pair aggressor, reason) })
  in
  List.iter
    (fun (key, r_ver) ->
      let latest_ver, _ = latest t key in
      if not (Version.equal latest_ver r_ver) then
        fail key ~aggressor:latest_ver ~reason:"stale-read";
      if other_holds t.prepared_writes key txn then
        fail key ~aggressor:Version.zero ~reason:"prepared-conflict")
    reads;
  List.iter
    (fun (key, _) ->
      if other_holds t.prepared_writes key txn then
        fail key ~aggressor:Version.zero ~reason:"prepared-conflict";
      if other_holds t.prepared_reads key txn then
        fail key ~aggressor:Version.zero ~reason:"prepared-conflict";
      let latest_ver, _ = latest t key in
      if Version.compare latest_ver txn >= 0 then
        fail key ~aggressor:latest_ver ~reason:"write-conflict")
    writes;
  !ok

let handle_prepare t ~src txn reads writes =
  t.stats.prepares <- t.stats.prepares + 1;
  let vote =
    if Hashtbl.mem t.prepared txn then Msg.V_commit
    (* Watermark enforcement: once [enforce_wm] is acked, nothing below
       it may newly prepare, so the commit set under any installed
       watermark is final (already-prepared transactions were reported
       as blocking and delayed that ack). *)
    else if txn.Version.ts <= t.enforce_wm then Msg.V_abort
    else if validate t txn reads writes then begin
      Hashtbl.replace t.prepared txn { p_txn = txn; p_reads = reads; p_writes = writes };
      List.iter (fun (key, _) -> mark t.prepared_reads key txn) reads;
      List.iter (fun (key, _) -> mark t.prepared_writes key txn) writes;
      if Obs.Bus.monitoring t.obs then
        observe t
          (Obs.Monitor.Record_count
             { replica = t.mon_label; count = Hashtbl.length t.prepared });
      Msg.V_commit
    end
    else Msg.V_abort
  in
  (match vote with
   | Msg.V_commit -> t.stats.commit_votes <- t.stats.commit_votes + 1
   | Msg.V_abort -> t.stats.abort_votes <- t.stats.abort_votes + 1);
  send t src (Msg.Prepare_reply { txn; group = t.group; vote })

let unprepare t txn =
  match Hashtbl.find_opt t.prepared txn with
  | None -> ()
  | Some p ->
    Hashtbl.remove t.prepared txn;
    List.iter (fun (key, _) -> unmark t.prepared_reads key txn) p.p_reads;
    List.iter (fun (key, _) -> unmark t.prepared_writes key txn) p.p_writes

let handle_commit t txn writes =
  unprepare t txn;
  List.iter
    (fun (key, value) ->
      let m = versions t key in
      m := Version.Map.add txn value !m;
      observe_install t key txn)
    writes

(* ------------------------------------------------------------------ *)
(* Enforcement-watermark rounds (follower reads).                      *)
(*                                                                     *)
(* Group replica 0 periodically proposes a watermark w = now − period. *)
(* A replica acks ok iff no prepared-undecided transaction with        *)
(* ts <= w remains; the ack carries its full committed prefix up to w  *)
(* (cumulative, so every install is self-contained).  After f+1        *)
(* ok-acks the coordinator installs the union: any transaction that    *)
(* could still commit below w either already committed at an ok-acker  *)
(* (so it is in the union — commit quorum and ok-ackers intersect) or  *)
(* must still gather prepare votes, and every future f+1 prepare       *)
(* quorum hits an enforcing ok-acker that now votes abort.             *)
(* ------------------------------------------------------------------ *)

let set_peers t peers = t.peers <- peers

let committed_upto t w =
  Hashtbl.fold
    (fun key m acc ->
      Version.Map.fold
        (fun v value acc ->
          if v.Version.ts <= w && not (Version.is_zero v) then
            (key, v, value) :: acc
          else acc)
        !m acc)
    t.store []

let handle_wm_mark t ~src round w =
  let ok =
    Hashtbl.fold (fun _ p acc -> acc && p.p_txn.Version.ts > w) t.prepared true
  in
  let commits = if ok then committed_upto t w else [] in
  if ok then t.enforce_wm <- max t.enforce_wm w;
  send t src (Msg.Wm_ack { round; w; ok; commits })

let handle_wm_ack t ~src round ok commits =
  match Hashtbl.find_opt t.wm_acks round with
  | None -> ()
  | Some st ->
    if ok && not (List.mem src st.wr_ok) then begin
      st.wr_ok <- src :: st.wr_ok;
      st.wr_commits <- commits @ st.wr_commits;
      if List.length st.wr_ok >= t.cfg.f + 1 then begin
        Hashtbl.remove t.wm_acks round;
        let install =
          Msg.Wm_install { round; w = st.wr_w; commits = st.wr_commits }
        in
        Array.iter (fun dst -> send t dst install) t.peers
      end
    end

let handle_wm_install t w commits =
  List.iter
    (fun (key, v, value) ->
      let m = versions t key in
      if not (Version.Map.mem v !m) then begin
        m := Version.Map.add v value !m;
        observe_install t key v
      end)
    commits;
  t.enforce_wm <- max t.enforce_wm w;
  t.applied_wm <- max t.applied_wm w

(* Follower read at snapshot [snap] (a plain timestamp; all commits at
   ts <= snap are included).  TAPIR never GCs committed versions, so a
   snapshot stays servable forever once applied_wm has passed it; the
   reported watermark for the GC-safety monitor is therefore zero. *)
let handle_ro_read t ~src txn key seq snap =
  let serve snap_ts =
    let bound = Version.make ~ts:snap_ts ~id:max_int in
    let w_ver, value =
      match Hashtbl.find_opt t.store key with
      | None -> (Version.zero, "")
      | Some m -> (
        match
          Version.Map.find_last_opt (fun v -> Version.compare v bound <= 0) !m
        with
        | Some (v, value) -> (v, value)
        | None -> (Version.zero, ""))
    in
    if Obs.Bus.monitoring t.obs then
      observe t
        (Obs.Monitor.Ro_serve
           { replica = t.mon_label; key; snap = (snap_ts, 0); wm = (0, min_int) });
    send t src (Msg.Ro_reply { txn; key; w_ver; value; seq; snap = snap_ts })
  in
  if snap < 0 then
    if t.applied_wm >= 0 then serve t.applied_wm
    else send t src (Msg.Ro_stale { txn; seq; wm = t.applied_wm })
  else if snap <= t.applied_wm then serve snap
  else send t src (Msg.Ro_stale { txn; seq; wm = t.applied_wm })

let handle t ~src msg =
  if t.stopped then ()
  else
  match msg with
  | Msg.Read { txn; key; seq } ->
    let w_ver, value = latest t key in
    send t src (Msg.Read_reply { txn; key; w_ver; value; seq })
  | Msg.Prepare { txn; reads; writes } ->
    observe_ir_op t "prepare" true;
    handle_prepare t ~src txn reads writes
  | Msg.Finalize { txn; vote } ->
    observe_ir_op t "finalize" true;
    (* The slow path makes the majority result durable; an abort result
       releases prepared state. *)
    (match vote with Msg.V_abort -> unprepare t txn | Msg.V_commit -> ());
    send t src (Msg.Finalize_reply { txn; group = t.group; vote })
  | Msg.Commit { txn; writes } ->
    observe_ir_op t "commit" false;
    handle_commit t txn writes
  | Msg.Abort { txn } ->
    observe_ir_op t "abort" false;
    unprepare t txn
  | Msg.Wm_mark { round; w } -> handle_wm_mark t ~src round w
  | Msg.Wm_ack { round; ok; commits; _ } -> handle_wm_ack t ~src round ok commits
  | Msg.Wm_install { w; commits; _ } -> handle_wm_install t w commits
  | Msg.Ro_read { txn; key; seq; snap } -> handle_ro_read t ~src txn key seq snap
  | Msg.Read_reply _ | Msg.Prepare_reply _ | Msg.Finalize_reply _
  | Msg.Ro_reply _ | Msg.Ro_stale _ -> ()

let service_cost t = function
  | Msg.Read _ -> t.cfg.read_cost_us
  | Msg.Prepare _ -> t.cfg.prepare_cost_us
  | Msg.Finalize _ | Msg.Finalize_reply _ -> t.cfg.finalize_cost_us
  | Msg.Commit _ | Msg.Abort _ -> t.cfg.commit_cost_us
  | Msg.Read_reply _ | Msg.Prepare_reply _ -> t.cfg.read_cost_us
  | Msg.Wm_mark _ | Msg.Wm_ack _ -> t.cfg.finalize_cost_us
  | Msg.Wm_install _ -> t.cfg.commit_cost_us
  | Msg.Ro_read _ | Msg.Ro_reply _ | Msg.Ro_stale _ -> t.cfg.read_cost_us

(* State transfer for amnesia-crash recovery.  A snapshot carries the
   committed store plus the prepared table: inheriting prepared entries
   (and their per-key markers) keeps in-flight transactions able to
   force abort votes against conflicting validation at the fresh
   incarnation, closing the window where a restarted replica would vote
   commit on state a surviving peer already promised away. *)
type snapshot = {
  sn_store : (string * (Version.t * string) list) list;
  sn_prepared : prepared list;
}

let snapshot t =
  {
    sn_store =
      Hashtbl.fold
        (fun key m acc -> (key, Version.Map.bindings !m) :: acc)
        t.store [];
    sn_prepared = Hashtbl.fold (fun _ p acc -> p :: acc) t.prepared [];
  }

let snapshot_bytes sn =
  let store_bytes =
    List.fold_left
      (fun acc (key, versions) ->
        List.fold_left
          (fun acc (_, value) -> acc + String.length key + String.length value + 16)
          acc versions)
      0 sn.sn_store
  in
  List.fold_left
    (fun acc p ->
      List.fold_left
        (fun acc (key, _) -> acc + String.length key + 16)
        (List.fold_left
           (fun acc (key, value) ->
             acc + String.length key + String.length value + 16)
           (acc + 16) p.p_writes)
        p.p_reads)
    store_bytes sn.sn_prepared

let install t sn =
  List.iter
    (fun (key, vs) ->
      let m = versions t key in
      List.iter
        (fun (v, value) ->
          m := Version.Map.add v value !m;
          observe_install t key v)
        vs)
    sn.sn_store;
  List.iter
    (fun p ->
      if not (Hashtbl.mem t.prepared p.p_txn) then begin
        Hashtbl.replace t.prepared p.p_txn p;
        List.iter (fun (key, _) -> mark t.prepared_reads key p.p_txn) p.p_reads;
        List.iter (fun (key, _) -> mark t.prepared_writes key p.p_txn) p.p_writes
      end)
    sn.sn_prepared

(* The transaction version a message's CPU time serves (wasted-work
   ledger); TAPIR has no re-execution, so eid is always 0. *)
let busy_owner = function
  | Msg.Read { txn; _ } | Msg.Prepare { txn; _ } | Msg.Finalize { txn; _ }
  | Msg.Commit { txn; _ } | Msg.Abort { txn }
  | Msg.Read_reply { txn; _ } | Msg.Prepare_reply { txn; _ }
  | Msg.Finalize_reply { txn; _ }
  | Msg.Ro_read { txn; _ } | Msg.Ro_reply { txn; _ } | Msg.Ro_stale { txn; _ }
    ->
    Some (txn.Version.ts, txn.Version.id)
  | Msg.Wm_mark _ | Msg.Wm_ack _ | Msg.Wm_install _ -> None

let create_at ~node ~cfg ~engine ~net ~group ~index ~cores
    ?(obs = Obs.Bus.null ()) () =
  let t =
    {
      cfg; engine; net; group; index; mon_label = Printf.sprintf "g%dr%d" group index; node;
      cpu = Cpu.create engine ~cores;
      obs;
      store = Hashtbl.create 1024;
      prepared = Hashtbl.create 256;
      prepared_reads = Hashtbl.create 256;
      prepared_writes = Hashtbl.create 256;
      stats = { prepares = 0; commit_votes = 0; abort_votes = 0 };
      stopped = false;
      enforce_wm = -1;
      applied_wm = -1;
      peers = [||];
      wm_round = 0;
      wm_acks = Hashtbl.create 16;
    }
  in
  (* Gated on the staleness bound: with follower reads off (the
     default) no watermark timer exists and the event sequence is
     byte-identical to the pre-feature behaviour. *)
  if index = 0 && cfg.Config.max_staleness_us > 0 && cfg.Config.wm_interval_us > 0
  then begin
    let rec tick () =
      ignore
        (Sim.Engine.schedule t.engine ~after:cfg.Config.wm_interval_us
           (fun () ->
             if t.stopped then ()
             else begin
               let w = Sim.Engine.now t.engine - cfg.Config.wm_interval_us in
               if w > 0 && Array.length t.peers > 0 then begin
                 let round = t.wm_round in
                 t.wm_round <- round + 1;
                 Hashtbl.replace t.wm_acks round
                   { wr_w = w; wr_ok = []; wr_commits = [] };
                 Array.iter
                   (fun dst -> send t dst (Msg.Wm_mark { round; w }))
                   t.peers
               end;
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

let state_view t =
  {
    Obs.Monitor.v_replica = t.mon_label;
    v_stopped = t.stopped;
    v_recovering = false;
    v_watermark =
      (if t.applied_wm >= 0 then Some (t.applied_wm, 0) else None);
    v_records = Hashtbl.length t.prepared;
    v_store_keys = Hashtbl.length t.store;
    v_store_versions =
      Hashtbl.fold (fun _ m acc -> acc + Version.Map.cardinal !m) t.store 0;
    v_counters =
      [
        ("prepares", t.stats.prepares);
        ("commit_votes", t.stats.commit_votes);
        ("abort_votes", t.stats.abort_votes);
      ];
  }
