module Version = Cc_types.Version
module Outcome = Cc_types.Outcome
module Net = Simnet.Net
module Engine = Sim.Engine

type group_state = {
  g_index : int;
  mutable g_votes : (Net.node * Msg.vote) list;
  mutable g_result : Msg.vote option;
  mutable g_fin_acks : int;
  mutable g_finalizing : bool;
}

type phase = Executing | Committing of group_state list | Done

(* Follower-read (snapshot) state.  The snapshot is a single timestamp
   shared by every read of the transaction, fixed adaptively by the
   first replica that serves it ([ro_snap = -1] until then). *)
type ro_state = {
  mutable ro_snap : int;
  mutable ro_stale_us : int;  (** clock − snapshot at pin time *)
  mutable ro_saw_stale : bool;
  mutable ro_doomed : Obs.Abort_reason.t option;
      (** set when every redirect is exhausted; reads then resolve
          immediately so the body still reaches [commit], which reports
          the typed abort *)
  ro_redirect : int array;  (** per-group replica-rotation offset *)
}

type txn = {
  id : Version.t;
  mutable reads : (string * Version.t) list;  (** reverse program order *)
  mutable read_vals : (string * string) list;
  mutable writes : (string * string) list;  (** reverse program order *)
  mutable pending : (int * pend) list;
  mutable next_seq : int;
  ro : ro_state option;
  mutable phase : phase;
  mutable finished : bool;
  mutable commit_cont : (Outcome.t -> unit) option;
  mutable slow : bool;
  t_start_us : int;
  (* Observability: currently open phase segment and accumulated
     per-phase virtual time. *)
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
  mutable fast_commits : int;
  mutable slow_commits : int;
}

type record = Cc_types.Txn_record.t

type t = {
  cfg : Config.t;
  engine : Engine.t;
  net : Msg.t Net.t;
  clock : Sim.Clock.t;
  rng : Sim.Rng.t;
  node : Net.node;
  groups : int array array;
  closest_ix : int array;  (** per group: index of the closest replica *)
  partition : string -> int;
  mutable last_ts : int;
  txns : (Version.t, txn) Hashtbl.t;
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
   phase, splitting it along the ending message's provenance chain. *)
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

(* [span:false] is a user abort, which records no [txn] span. *)
let emit_finish t txn ~abort ~span =
  if Obs.Bus.on t.obs then
    emit t
      (Obs.Bus.Finish
         { ver = Version.to_pair txn.id; start_us = txn.t_start_us; abort;
           reexecs = None; work_us = txn.exec_us + txn.prep_us + txn.fin_us;
           final_eid = 0; span })

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

let participants txn t =
  let tbl = Hashtbl.create 4 in
  List.iter (fun (k, _) -> Hashtbl.replace tbl (t.partition k) ()) txn.reads;
  List.iter (fun (k, _) -> Hashtbl.replace tbl (t.partition k) ()) txn.writes;
  Hashtbl.fold (fun g () acc -> g :: acc) tbl []

let finish t txn outcome =
  if not txn.finished then begin
    txn.finished <- true;
    (match t.c_cur with
    | Some cur when cur == txn ->
      profile_wait t None;
      t.c_cur <- None
    | Some _ | None -> ());
    switch_segment t txn txn.seg;
    txn.phase <- Done;
    Hashtbl.remove t.txns txn.id;
    (match outcome with
     | Outcome.Committed -> t.stats.committed <- t.stats.committed + 1
     | Outcome.Aborted _ -> t.stats.aborted <- t.stats.aborted + 1);
    emit_finish t txn ~abort:(Outcome.reason outcome) ~span:true;
    (match t.on_finish with
     | Some f ->
       f
         {
           Cc_types.Txn_record.h_ver = txn.id;
           h_committed = Outcome.is_committed outcome;
           h_abort = Outcome.reason outcome;
           h_reads = List.rev txn.reads;
           h_writes = List.rev_map fst txn.writes;
           h_start_us = txn.t_start_us;
           h_end_us = Engine.now t.engine;
           h_exec_us = txn.exec_us;
           h_prepare_us = txn.prep_us;
           h_finalize_us = txn.fin_us;
           h_ro = (match txn.ro with Some _ -> true | None -> false);
           h_staleness_us =
             (match txn.ro with
             | Some ro when ro.ro_snap >= 0 -> ro.ro_stale_us
             | Some _ | None -> 0);
         }
     | None -> ());
    match txn.commit_cont with Some cont -> cont outcome | None -> ()
  end

let broadcast_group t g msg = Array.iter (fun dst -> send t dst msg) t.groups.(g)

let complete_commit t txn =
  List.iter
    (fun g ->
      broadcast_group t g (Msg.Commit { txn = txn.id; writes = List.rev txn.writes }))
    (participants txn t);
  if txn.slow then t.stats.slow_commits <- t.stats.slow_commits + 1
  else t.stats.fast_commits <- t.stats.fast_commits + 1;
  finish t txn Outcome.Committed

let abort_everywhere t txn =
  List.iter (fun g -> broadcast_group t g (Msg.Abort { txn = txn.id })) (participants txn t);
  (* Every TAPIR abort is an OCC validation failure: some replica saw a
     stale read or a conflicting prepared/committed write. *)
  finish t txn (Outcome.Aborted Obs.Abort_reason.Validation_fail)

let check_all_groups t txn =
  match txn.phase with
  | Committing gs ->
    if List.for_all (fun g -> g.g_result = Some Msg.V_commit) gs then
      complete_commit t txn
  | Executing | Done -> ()

let n_per_group t = Config.n_replicas t.cfg

let rec evaluate_group t txn (g : group_state) ~forced =
  match g.g_result with
  | Some _ -> ()
  | None ->
    let votes = List.map snd g.g_votes in
    let aborts = List.length (List.filter (fun v -> v = Msg.V_abort) votes) in
    let commits = List.length votes - aborts in
    if aborts > 0 then begin
      (* The client decides abort unilaterally: nothing durable exists. *)
      g.g_result <- Some Msg.V_abort;
      abort_everywhere t txn
    end
    else if commits = n_per_group t then begin
      (* Fast path: unanimous. *)
      g.g_result <- Some Msg.V_commit;
      check_all_groups t txn
    end
    else if forced && commits >= t.cfg.f + 1 && not g.g_finalizing then begin
      (* Slow path: make the majority result durable with one more
         round. *)
      g.g_finalizing <- true;
      if txn.seg = `Prep then switch_segment t txn `Fin;
      txn.slow <- true;
      broadcast_group t g.g_index (Msg.Finalize { txn = txn.id; vote = Msg.V_commit })
    end

and arm_commit_timer t txn gs =
  ignore
    (Engine.schedule t.engine ~after:t.cfg.prepare_timeout_us (fun () ->
         if not txn.finished then begin
           List.iter (fun g -> evaluate_group t txn g ~forced:true) gs;
           match txn.phase with
           | Committing _ when not txn.finished -> arm_commit_timer t txn gs
           | Committing _ | Executing | Done -> ()
         end))

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

let handle_read_reply t txn_id key w_ver value seq =
  match Hashtbl.find_opt t.txns txn_id with
  | None -> ()
  | Some txn -> (
    match List.assoc_opt seq txn.pending with
    | None -> ()
    | Some p -> deliver_read t txn p key w_ver value seq)

(* --- Follower reads ---------------------------------------------------- *)

let ro_attempt_cap t = max (2 * Config.n_replicas t.cfg) 6

(* Every redirect path is exhausted: release the outstanding reads with
   empty values so the body's CPS chain still reaches [commit] (the
   closed-loop driver blocks on its outcome continuation), where the
   typed abort is reported. *)
let ro_doom _t txn (ro : ro_state) reason =
  if ro.ro_doomed = None && not txn.finished then begin
    ro.ro_doomed <- Some reason;
    let pend = List.sort (fun (a, _) (b, _) -> compare a b) txn.pending in
    txn.pending <- [];
    List.iter (fun (_, (p : pend)) -> p.pd_cont { c_txn = txn } "") pend
  end

let rec ro_send_read t txn (ro : ro_state) seq (p : pend) =
  let g = t.partition p.pd_key in
  let n = n_per_group t in
  let dst = t.groups.(g).((t.closest_ix.(g) + ro.ro_redirect.(g)) mod n) in
  send t dst (Msg.Ro_read { txn = txn.id; key = p.pd_key; seq; snap = ro.ro_snap });
  let tries = p.pd_tries in
  ignore
    (Engine.schedule t.engine ~after:t.cfg.prepare_timeout_us (fun () ->
         (* Unchanged [pd_tries] means no reply and no redirect landed in
            the meantime: treat the replica as unreachable. *)
         if
           (not txn.finished) && ro.ro_doomed = None && p.pd_tries = tries
           && List.mem_assoc seq txn.pending
         then ro_redirect_read t txn ro seq p))

and ro_redirect_read t txn (ro : ro_state) seq (p : pend) =
  if (not txn.finished) && ro.ro_doomed = None then begin
    p.pd_tries <- p.pd_tries + 1;
    if p.pd_tries >= ro_attempt_cap t then
      ro_doom t txn ro
        (if ro.ro_saw_stale then Obs.Abort_reason.Stale_replica
         else Obs.Abort_reason.Timeout)
    else begin
      let g = t.partition p.pd_key in
      ro.ro_redirect.(g) <- ro.ro_redirect.(g) + 1;
      let wait =
        Sim.Backoff.full_jitter t.rng ~base_us:5_000 ~cap_us:160_000
          ~attempt:p.pd_tries
      in
      ignore
        (Engine.schedule t.engine ~after:wait (fun () ->
             if
               (not txn.finished) && ro.ro_doomed = None
               && List.mem_assoc seq txn.pending
             then ro_send_read t txn ro seq p))
    end
  end

let ro_replica_label t (ro : ro_state) g =
  Printf.sprintf "g%dr%d" g ((t.closest_ix.(g) + ro.ro_redirect.(g)) mod n_per_group t)

let handle_ro_reply t txn_id key w_ver value seq snap =
  match Hashtbl.find_opt t.txns txn_id with
  | None -> ()
  | Some txn -> (
    match txn.ro with
    | None -> ()
    | Some ro -> (
      if txn.finished || ro.ro_doomed <> None then ()
      else
        match List.assoc_opt seq txn.pending with
        | None -> ()
        | Some p ->
          if ro.ro_snap < 0 then begin
            (* Pin attempt: the replica offered its applied watermark. *)
            let stale = max 0 (Sim.Clock.read t.clock - snap) in
            if stale > t.cfg.max_staleness_us then begin
              ro.ro_saw_stale <- true;
              ro_redirect_read t txn ro seq p
            end
            else begin
              ro.ro_snap <- snap;
              ro.ro_stale_us <- stale;
              if Obs.Bus.monitoring t.obs then
                emit t
                  (Obs.Bus.State
                     (Obs.Monitor.Ro_pin
                        {
                          replica = ro_replica_label t ro (t.partition key);
                          snap = (snap, 0);
                          wm = (0, min_int);
                          staleness_us = stale;
                          bound_us = t.cfg.max_staleness_us;
                        }));
              deliver_read t txn p key w_ver value seq
            end
          end
          else deliver_read t txn p key w_ver value seq))

let handle_ro_stale t txn_id seq =
  match Hashtbl.find_opt t.txns txn_id with
  | None -> ()
  | Some txn -> (
    match txn.ro with
    | None -> ()
    | Some ro -> (
      if txn.finished || ro.ro_doomed <> None then ()
      else
        match List.assoc_opt seq txn.pending with
        | None -> ()
        | Some p ->
          ro.ro_saw_stale <- true;
          ro_redirect_read t txn ro seq p))

let handle_prepare_reply t txn_id group ~src vote =
  match Hashtbl.find_opt t.txns txn_id with
  | None -> ()
  | Some txn -> (
    match txn.phase with
    | Committing gs -> (
      match List.find_opt (fun g -> g.g_index = group) gs with
      | None -> ()
      | Some g ->
        if not (List.mem_assoc src g.g_votes) then begin
          g.g_votes <- (src, vote) :: g.g_votes;
          evaluate_group t txn g ~forced:false
        end)
    | Executing | Done -> ())

let handle_finalize_reply t txn_id group vote =
  match Hashtbl.find_opt t.txns txn_id with
  | None -> ()
  | Some txn -> (
    match txn.phase with
    | Committing gs -> (
      match List.find_opt (fun g -> g.g_index = group) gs with
      | None -> ()
      | Some g ->
        if g.g_finalizing && g.g_result = None then begin
          g.g_fin_acks <- g.g_fin_acks + 1;
          if g.g_fin_acks >= t.cfg.f + 1 then begin
            g.g_result <- Some vote;
            match vote with
            | Msg.V_commit -> check_all_groups t txn
            | Msg.V_abort -> abort_everywhere t txn
          end
        end)
    | Executing | Done -> ())

let handle t ~src msg =
  match msg with
  | Msg.Read_reply { txn; key; w_ver; value; seq } ->
    handle_read_reply t txn key w_ver value seq
  | Msg.Prepare_reply { txn; group; vote } -> handle_prepare_reply t txn group ~src vote
  | Msg.Finalize_reply { txn; group; vote } -> handle_finalize_reply t txn group vote
  | Msg.Ro_reply { txn; key; w_ver; value; seq; snap } ->
    handle_ro_reply t txn key w_ver value seq snap
  | Msg.Ro_stale { txn; seq; wm = _ } -> handle_ro_stale t txn seq
  | Msg.Read _ | Msg.Prepare _ | Msg.Finalize _ | Msg.Commit _ | Msg.Abort _
  | Msg.Wm_mark _ | Msg.Wm_ack _ | Msg.Wm_install _ | Msg.Ro_read _ -> ()

let create ~cfg ~engine ~net ~rng ~region ~groups ~partition
    ?(obs = Obs.Bus.null ()) ?on_finish () =
  let node = Net.add_node net ~region in
  let closest_ix =
    Array.map
      (fun replicas ->
        let ix = ref 0 and found = ref false in
        Array.iteri
          (fun i r ->
            if (not !found) && Net.region_of net r = region then begin
              found := true;
              ix := i
            end)
          replicas;
        !ix)
      groups
  in
  let t =
    {
      cfg; engine; net;
      clock = Sim.Clock.create engine rng ~max_skew:cfg.max_clock_skew_us;
      rng;
      node; groups; closest_ix; partition;
      last_ts = 0;
      txns = Hashtbl.create 16;
      stats = { begun = 0; committed = 0; aborted = 0; fast_commits = 0; slow_commits = 0 };
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

let begin_with t ~ro body =
  let ts = max (Sim.Clock.read t.clock) (t.last_ts + 1) in
  t.last_ts <- ts;
  let id = Version.make ~ts ~id:t.node in
  let now = Engine.now t.engine in
  let txn =
    {
      id; reads = []; read_vals = []; writes = []; pending = []; next_seq = 0;
      ro;
      phase = Executing; finished = false; commit_cont = None; slow = false;
      t_start_us = now; seg = `Exec; ph_start_us = now; exec_us = 0;
      prep_us = 0; fin_us = 0;
    }
  in
  Hashtbl.replace t.txns id txn;
  t.stats.begun <- t.stats.begun + 1;
  t.c_cur <- Some txn;
  t.c_comps <- Array.make Obs.Profile.n_cells 0;
  t.c_last_ev <- now;
  if Obs.Bus.on t.obs then
    emit t (Obs.Bus.Begin { ver = Version.to_pair id; ro = false });
  body { c_txn = txn }

let begin_ t body = begin_with t ~ro:None body

let begin_ro t body =
  if t.cfg.max_staleness_us <= 0 then begin_ t body
  else
    begin_with t
      ~ro:
        (Some
           {
             ro_snap = -1;
             ro_stale_us = 0;
             ro_saw_stale = false;
             ro_doomed = None;
             ro_redirect = Array.make (Array.length t.groups) 0;
           })
      body

let get t ctx key cont =
  let txn = ctx.c_txn in
  if txn.finished then ()
  else
    match List.assoc_opt key txn.writes with
    | Some v -> cont ctx v
    | None -> (
      match List.assoc_opt key txn.read_vals with
      | Some v -> cont ctx v
      | None -> (
        match txn.ro with
        | Some ro when ro.ro_doomed <> None -> cont ctx ""
        | Some ro ->
          let seq = txn.next_seq in
          txn.next_seq <- seq + 1;
          let p =
            { pd_sent = Engine.now t.engine; pd_key = key; pd_tries = 0;
              pd_cont = cont }
          in
          txn.pending <- (seq, p) :: txn.pending;
          ro_send_read t txn ro seq p
        | None ->
          let seq = txn.next_seq in
          txn.next_seq <- seq + 1;
          let p =
            { pd_sent = Engine.now t.engine; pd_key = key; pd_tries = 0;
              pd_cont = cont }
          in
          txn.pending <- (seq, p) :: txn.pending;
          let g = t.partition key in
          send t t.groups.(g).(t.closest_ix.(g)) (Msg.Read { txn = txn.id; key; seq })))

let get_for_update = get

let put _t ctx key value =
  let txn = ctx.c_txn in
  (* Follower-read transactions are read-only by contract; writes are
     dropped rather than smuggled into a validation-free commit. *)
  if (not txn.finished) && txn.ro == None then
    txn.writes <- (key, value) :: txn.writes;
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
    t.stats.aborted <- t.stats.aborted + 1;
    emit_finish t txn ~abort:(Some Obs.Abort_reason.User_abort) ~span:false;
    (* Nothing is prepared yet, but replicas may hold read registrations;
       an Abort message is harmless and frees any prepared state from a
       duplicate path.  Follower reads leave no replica state at all. *)
    match txn.ro with
    | Some _ -> ()
    | None ->
      List.iter
        (fun g -> broadcast_group t g (Msg.Abort { txn = txn.id }))
        (participants txn t)
  end

let commit t ctx cont =
  let txn = ctx.c_txn in
  if txn.finished then ()
  else begin
    txn.commit_cont <- Some cont;
    match txn.ro with
    | Some ro -> (
      (* Snapshot reads below an installed enforcement watermark are
         final — no validation round is needed. *)
      match ro.ro_doomed with
      | Some reason -> finish t txn (Outcome.Aborted reason)
      | None -> finish t txn Outcome.Committed)
    | None ->
    let parts = participants txn t in
    match parts with
    | [] -> finish t txn Outcome.Committed
    | _ ->
      let gs =
        List.map
          (fun g ->
            { g_index = g; g_votes = []; g_result = None; g_fin_acks = 0;
              g_finalizing = false })
          parts
      in
      switch_segment t txn `Prep;
      txn.phase <- Committing gs;
      let dedup_writes =
        let seen = Hashtbl.create 8 in
        List.filter
          (fun (k, _) ->
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          txn.writes
        (* txn.writes is in reverse program order, so the first
           occurrence is the final value. *)
      in
      List.iter
        (fun g ->
          broadcast_group t g
            (Msg.Prepare
               { txn = txn.id; reads = List.rev txn.reads; writes = dedup_writes }))
        parts;
      arm_commit_timer t txn gs
  end
