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

type phase = Executing | Committing of group_state list

type txn = {
  life : Chassis.life;  (** its [ver] is the transaction's id *)
  mutable reads : (string * Version.t) list;  (** reverse program order *)
  mutable read_vals : (string * string) list;
  mutable writes : (string * string) list;  (** reverse program order *)
  mutable pending : (int * ctx Chassis.pend) list;
  mutable next_seq : int;
  ro : Chassis.follower option;
      (** follower read: one snapshot timestamp shared by every read,
          fixed adaptively by the first replica that serves it *)
  mutable phase : phase;
  mutable slow : bool;
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
  c : (txn, Msg.t) Chassis.t;
  cfg : Config.t;
  clock : Sim.Clock.t;
  rng : Sim.Rng.t;
  groups : int array array;
  partition : string -> int;
  mutable last_ts : int;
  txns : (Version.t, txn) Hashtbl.t;
  stats : stats;
  commit_timeout : txn -> unit;
      (** the commit timer's action, allocated once per client *)
}

let node t = t.c.node
let stats t = t.stats
let last_comps t = t.c.comps
let id txn = txn.life.Chassis.ver
let send t dst msg = Chassis.send t.c dst msg
let ended txn = Chassis.ended txn.life
let participants txn t = Chassis.participants t.partition txn.reads txn.writes

let history =
  {
    Chassis.reads = (fun txn -> List.rev txn.reads);
    writes = (fun txn -> List.rev_map fst txn.writes);
    ro = (fun txn -> txn.ro <> None);
    staleness_us =
      (fun txn ->
        match txn.ro with Some ro when ro.snap >= 0 -> ro.stale_us | Some _ | None -> 0);
  }

let finish t txn outcome =
  if not (ended txn) then begin
    Hashtbl.remove t.txns (id txn);
    (match outcome with
     | Outcome.Committed -> t.stats.committed <- t.stats.committed + 1
     | Outcome.Aborted _ -> t.stats.aborted <- t.stats.aborted + 1);
    Chassis.finish t.c txn.life txn outcome ~ver:(id txn) ~eid:None ~reexecs:None
  end

let broadcast_group t g msg = Array.iter (fun dst -> send t dst msg) t.groups.(g)

let complete_commit t txn =
  List.iter
    (fun g ->
      broadcast_group t g (Msg.Commit { txn = id txn; writes = List.rev txn.writes }))
    (participants txn t);
  if txn.slow then t.stats.slow_commits <- t.stats.slow_commits + 1
  else t.stats.fast_commits <- t.stats.fast_commits + 1;
  finish t txn Outcome.Committed

let abort_everywhere t txn =
  List.iter (fun g -> broadcast_group t g (Msg.Abort { txn = id txn })) (participants txn t);
  (* Every TAPIR abort is an OCC validation failure: some replica saw a
     stale read or a conflicting prepared/committed write. *)
  finish t txn (Outcome.Aborted Obs.Abort_reason.Validation_fail)

let check_all_groups t txn =
  match txn.phase with
  | Committing gs ->
    if (not (ended txn)) && List.for_all (fun g -> g.g_result = Some Msg.V_commit) gs
    then complete_commit t txn
  | Executing -> ()

let n_per_group t = Config.n_replicas t.cfg

let evaluate_group t txn (g : group_state) ~forced =
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
      if txn.life.seg = Chassis.Prep then Chassis.switch t.c txn.life ~eid:None Chassis.Fin;
      txn.slow <- true;
      broadcast_group t g.g_index (Msg.Finalize { txn = id txn; vote = Msg.V_commit })
    end

let arm_commit_timer t txn =
  ignore (Chassis.arm t.c t.txns ~after:t.cfg.prepare_timeout_us (id txn) t.commit_timeout)

let commit_timeout t txn =
  match txn.phase with
  | Committing gs ->
    List.iter (fun g -> evaluate_group t txn g ~forced:true) gs;
    if not (ended txn) then arm_commit_timer t txn
  | Executing -> ()

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

let handle_read_reply t txn_id key w_ver value seq =
  match Hashtbl.find_opt t.txns txn_id with
  | None -> ()
  | Some txn -> (
    match List.assoc_opt seq txn.pending with
    | None -> ()
    | Some p -> deliver_read t txn p key w_ver value seq)

(* --- Follower reads ---------------------------------------------------- *)

(* Every redirect path is exhausted: release the outstanding reads with
   empty values so the body's CPS chain still reaches [commit] (the
   closed-loop driver blocks on its outcome continuation), where the
   typed abort is reported. *)
let ro_doom txn (ro : Chassis.follower) reason =
  if ro.doomed = None && not (ended txn) then begin
    let pend = txn.pending in
    txn.pending <- [];
    Chassis.doom ro reason pend (fun p -> p.pd_cont { c_txn = txn } "")
  end

(* The follower read [seq] of [txn], while still pending and undoomed. *)
let ro_pending txn seq =
  match txn.ro with
  | Some ro when ro.doomed = None -> (
    match List.assoc_opt seq txn.pending with Some p -> Some (ro, p) | None -> None)
  | Some _ | None -> None

let rec ro_send_read t txn (ro : Chassis.follower) seq (p : ctx Chassis.pend) =
  let g = t.partition p.pd_key in
  let dst = t.groups.(g).(Chassis.rotated t.c ro ~g ~n:(n_per_group t)) in
  send t dst (Msg.Ro_read { txn = id txn; key = p.pd_key; seq; snap = ro.snap });
  let tries = p.pd_tries in
  ignore
    (Chassis.arm t.c t.txns ~after:t.cfg.prepare_timeout_us (id txn) (fun txn ->
         (* Unchanged [pd_tries] means no reply and no redirect landed in
            the meantime: treat the replica as unreachable. *)
         match ro_pending txn seq with
         | Some (ro, p) when p.pd_tries = tries -> ro_redirect_read t txn ro seq p
         | Some _ | None -> ()))

and ro_redirect_read t txn (ro : Chassis.follower) seq (p : ctx Chassis.pend) =
  if (not (ended txn)) && ro.doomed = None then
    match
      Chassis.redirect ro t.rng ~replicas:(n_per_group t) ~g:(t.partition p.pd_key) p
    with
    | None -> ro_doom txn ro (Chassis.exhausted ~saw_stale:ro.saw_stale)
    | Some wait ->
      ignore
        (Chassis.arm t.c t.txns ~after:wait (id txn) (fun txn ->
             match ro_pending txn seq with
             | Some (ro, p) -> ro_send_read t txn ro seq p
             | None -> ()))

(* The follower read [seq] of the live transaction [txn_id], while
   still pending and undoomed, for a reply or a bounce. *)
let ro_answered t txn_id seq =
  match Hashtbl.find_opt t.txns txn_id with
  | Some txn when not (ended txn) -> (
    match ro_pending txn seq with Some (ro, p) -> Some (txn, ro, p) | None -> None)
  | Some _ | None -> None

let handle_ro_reply t txn_id key w_ver value seq snap =
  match ro_answered t txn_id seq with
  | None -> ()
  | Some (txn, ro, p) ->
    if ro.snap < 0 then begin
      (* Pin attempt: the replica offered its applied watermark. *)
      let stale = max 0 (Sim.Clock.read t.clock - snap) in
      if stale > t.cfg.max_staleness_us then begin
        ro.saw_stale <- true;
        ro_redirect_read t txn ro seq p
      end
      else begin
        ro.snap <- snap;
        ro.stale_us <- stale;
        if Obs.Bus.monitoring t.c.obs then begin
          let g = t.partition key in
          Chassis.emit t.c
            (Obs.Bus.State
               (Obs.Monitor.Ro_pin
                  {
                    replica =
                      Printf.sprintf "g%dr%d" g (Chassis.rotated t.c ro ~g ~n:(n_per_group t));
                    snap = (snap, 0);
                    wm = (0, min_int);
                    staleness_us = stale;
                    bound_us = t.cfg.max_staleness_us;
                  }))
        end;
        deliver_read t txn p key w_ver value seq
      end
    end
    else deliver_read t txn p key w_ver value seq

let handle_ro_stale t txn_id seq =
  match ro_answered t txn_id seq with
  | None -> ()
  | Some (txn, ro, p) ->
    ro.saw_stale <- true;
    ro_redirect_read t txn ro seq p

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
    | Executing -> ())

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
    | Executing -> ())

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
  let c = Chassis.create ~engine ~net ~region ~groups ~obs ~on_finish history in
  let rec t =
    {
      c; cfg;
      clock = Sim.Clock.create engine rng ~max_skew:cfg.max_clock_skew_us;
      rng; groups; partition;
      last_ts = 0;
      txns = Hashtbl.create 16;
      stats = { begun = 0; committed = 0; aborted = 0; fast_commits = 0; slow_commits = 0 };
      commit_timeout = (fun txn -> commit_timeout t txn);
    }
  in
  Chassis.serve c (fun ~src msg -> handle t ~src msg);
  t

let begin_with t ~ro body =
  let ts = max (Sim.Clock.read t.clock) (t.last_ts + 1) in
  t.last_ts <- ts;
  let id = Version.make ~ts ~id:t.c.node in
  let life = Chassis.begin_ t.c id ~ro:(ro <> None) in
  let txn =
    { life; reads = []; read_vals = []; writes = []; pending = []; next_seq = 0;
      ro; phase = Executing; slow = false }
  in
  Hashtbl.replace t.txns id txn;
  t.stats.begun <- t.stats.begun + 1;
  body { c_txn = txn }

let begin_ t body = begin_with t ~ro:None body

let begin_ro t body =
  if t.cfg.max_staleness_us <= 0 then begin_ t body
  else begin_with t ~ro:(Some (Chassis.follower t.c ~snap:(-1))) body

let get t ctx key cont =
  let txn = ctx.c_txn in
  if ended txn then ()
  else
    match List.assoc_opt key txn.writes with
    | Some v -> cont ctx v
    | None -> (
      match List.assoc_opt key txn.read_vals with
      | Some v -> cont ctx v
      | None -> (
        match txn.ro with
        | Some ro when ro.doomed <> None -> cont ctx ""
        | ro -> (
          let seq = txn.next_seq in
          txn.next_seq <- seq + 1;
          let p =
            { Chassis.pd_sent = Engine.now t.c.engine; pd_key = key; pd_tries = 0;
              pd_cont = cont }
          in
          txn.pending <- (seq, p) :: txn.pending;
          match ro with
          | Some ro -> ro_send_read t txn ro seq p
          | None ->
            let g = t.partition key in
            send t t.groups.(g).(t.c.closest_ix.(g)) (Msg.Read { txn = id txn; key; seq }))))

let get_for_update = get

let put _t ctx key value =
  let txn = ctx.c_txn in
  (* Follower-read transactions are read-only by contract; writes are
     dropped rather than smuggled into a validation-free commit. *)
  if (not (ended txn)) && txn.ro == None then
    txn.writes <- (key, value) :: txn.writes;
  ctx

let abort t ctx =
  let txn = ctx.c_txn in
  if not (ended txn) then begin
    Hashtbl.remove t.txns (id txn);
    t.stats.aborted <- t.stats.aborted + 1;
    Chassis.retire t.c txn.life;
    (* Nothing is prepared yet, but replicas may hold read registrations;
       an Abort message is harmless and frees any prepared state from a
       duplicate path.  Follower reads leave no replica state at all. *)
    match txn.ro with
    | Some _ -> ()
    | None ->
      List.iter
        (fun g -> broadcast_group t g (Msg.Abort { txn = id txn }))
        (participants txn t)
  end

let commit t ctx cont =
  let txn = ctx.c_txn in
  if ended txn then ()
  else begin
    txn.life.on_outcome <- cont;
    match txn.ro with
    | Some ro -> (
      (* Snapshot reads below an installed enforcement watermark are
         final — no validation round is needed. *)
      match ro.doomed with
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
      Chassis.switch t.c txn.life ~eid:None Chassis.Prep;
      txn.phase <- Committing gs;
      let writes = Chassis.final_writes txn.writes in
      List.iter
        (fun g ->
          broadcast_group t g (Msg.Prepare { txn = id txn; reads = List.rev txn.reads; writes }))
        parts;
      arm_commit_timer t txn
  end
