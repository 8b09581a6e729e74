(* One observation stream: the protocol stacks emit each fact once and
   the bus hands it to the recorders.  Dispatch is a fixed match over
   the five recorders, and every recorder still checks its own enabled
   flag, so emitting to a disabled recorder is a no-op.  All trace
   formatting lives here, behind the sink's enabled flag. *)

type ver = int * int

type event =
  | Begin of { ver : ver; ro : bool }
  | Read of { ver : ver; key : string; from : ver; eid : int; sent_us : int }
  | Phase of { ver : ver; name : string; start_us : int; eid : int option }
  | Supersede of { ver : ver; eid : int }
  | Reexec of {
      ver : ver; eid : int; from_read : int; key : string;
      trigger : Lineage.trigger; aggressor : ver; from : ver;
    }
  | Decide of { ver : ver; eid : int; decision : string }
  | Finish of {
      ver : ver; start_us : int; abort : Abort_reason.t option;
      reexecs : int option; work_us : int; final_eid : int; span : bool;
    }
  | Blame of {
      ver : ver; key : string; conflict : bool; abort_key : bool;
      lineage : (ver * string) option;
    }
  | Busy of { kind : string; ver : ver option; eid : int; cost_us : int }
  | Kill of { replica : string }
  | State of Monitor.transition

type t = {
  sink : Sink.t;
  profile : Profile.t;
  monitor : Monitor.t;
  flight_ring : Flight.t;
  lineage_log : Lineage.t;
  on : bool;
}

let create ?(sink = Sink.null ()) ?(profile = Profile.null ())
    ?(monitor = Monitor.null ()) ?(flight_ring = Flight.null ())
    ?(lineage_log = Lineage.null ()) () =
  { sink; profile; monitor; flight_ring; lineage_log;
    on =
      Sink.enabled sink || Profile.enabled profile
      || Lineage.enabled lineage_log }

let null () = create ()
let on t = t.on
let monitoring t = Monitor.enabled t.monitor
let profiling t = Profile.enabled t.profile
let sink t = t.sink
let profile t = t.profile
let monitor t = t.monitor
let flight_ring t = t.flight_ring
let lineage_log t = t.lineage_log

(* --- Trace rendering ------------------------------------------------------ *)

let ver_arg (ts, id) = ("ver", Sink.S (Printf.sprintf "v(%d,%d)" ts id))

(* Deterministic flow id tying a superseded execution to its
   re-execution: a pure function of (ver, superseded eid), so same-seed
   runs draw identical arrows. *)
let flow_id (ts, id) eid =
  ((ts land 0xFFFFF) lsl 16) lor ((id land 0xFF) lsl 8) lor (eid land 0xFF)

(* Every sink entry is also ringed by the flight recorder. *)
let record t ~ph ~name ~cat ~ts ~dur ~pid args =
  Sink.record t.sink
    { ev_name = name; ev_cat = cat; ev_ph = ph; ev_ts = ts; ev_dur = dur;
      ev_pid = pid; ev_args = args };
  Flight.record t.flight_ring (Flight.Span { fl_ts = ts; name; cat; pid; dur })

let span t ~name ~cat ~ts ~dur ~pid args =
  record t ~ph:Sink.Complete ~name ~cat ~ts ~dur:(max 0 dur) ~pid args

let instant t ~name ~ts ~pid args =
  record t ~ph:Sink.Instant ~name ~cat:"txn" ~ts ~dur:0 ~pid args

let flow t ~ts ~pid ~id ~start =
  record t
    ~ph:(if start then Sink.Flow_start id else Sink.Flow_finish id)
    ~name:"reexec" ~cat:"flow" ~ts ~dur:0 ~pid []

let outcome_string = function
  | None -> "committed"
  | Some r -> "aborted(" ^ Abort_reason.to_string r ^ ")"

let trace t ~ts ~pid = function
  | Begin { ver; ro } ->
    instant t ~name:"begin" ~ts ~pid
      (ver_arg ver :: (if ro then [ ("ro", Sink.I 1) ] else []))
  | Read { ver; key; sent_us; _ } ->
    span t ~name:"read" ~cat:"op" ~ts:sent_us ~dur:(ts - sent_us) ~pid
      [ ver_arg ver; ("key", Sink.S key) ]
  | Phase { ver; name; start_us; eid } ->
    span t ~name ~cat:"phase" ~ts:start_us ~dur:(ts - start_us) ~pid
      (ver_arg ver
      :: (match eid with Some e -> [ ("eid", Sink.I e) ] | None -> []))
  | Supersede { ver; eid } -> flow t ~ts ~pid ~id:(flow_id ver eid) ~start:true
  | Reexec { ver; eid; from_read; key; _ } ->
    instant t ~name:"reexecute" ~ts ~pid
      [ ver_arg ver; ("eid", Sink.I eid); ("from_read", Sink.I from_read);
        ("key", Sink.S key) ];
    flow t ~ts ~pid ~id:(flow_id ver (eid - 1)) ~start:false
  | Decide { ver; eid; decision } ->
    instant t ~name:"decide" ~ts ~pid
      [ ver_arg ver; ("eid", Sink.I eid); ("decision", Sink.S decision) ]
  | Finish { ver; start_us; abort; reexecs; span = whole; _ } ->
    (match abort with
    | None -> instant t ~name:"commit" ~ts ~pid [ ver_arg ver ]
    | Some r ->
      instant t ~name:"abort" ~ts ~pid
        [ ver_arg ver; ("reason", Sink.S (Abort_reason.to_string r)) ]);
    if whole then
      span t ~name:"txn" ~cat:"txn" ~ts:start_us ~dur:(ts - start_us) ~pid
        (ver_arg ver
        :: ("outcome", Sink.S (outcome_string abort))
        :: (match reexecs with Some n -> [ ("reexecs", Sink.I n) ] | None -> []))
  | Blame _ | Busy _ | Kill _ | State _ -> ()

(* --- Dispatch ---------------------------------------------------------------- *)

let emit t ~ts ~pid ev =
  if Sink.enabled t.sink then trace t ~ts ~pid ev;
  match ev with
  | Begin { ver; _ } -> Lineage.note_begin t.lineage_log ~ver ~ts
  | Read { ver; key; from; eid; _ } ->
    Lineage.note_read t.lineage_log ~ver ~key ~from ~eid ~ts
  | Phase _ | Supersede _ | Decide _ -> ()
  | Reexec { ver; eid; key; trigger; aggressor; from; _ } ->
    Profile.note_key t.profile ~key ~conflicts:0 ~reexecs:1 ~aborts:0;
    Lineage.note_reexec t.lineage_log ~ver ~eid ~trigger ~key ~aggressor ~ts;
    Lineage.note_read t.lineage_log ~ver ~key ~from ~eid ~ts
  | Finish { ver; abort; work_us; final_eid; _ } ->
    let committed = Option.is_none abort in
    Profile.note_outcome t.profile ~ver ~committed ~final_eid;
    Lineage.note_finish t.lineage_log ~ver ~committed
      ~reason:(match abort with Some r -> Abort_reason.to_string r | None -> "")
      ~work_us ~ts
  | Blame { ver; key; conflict; abort_key; lineage } -> (
    if conflict || abort_key then
      Profile.note_key t.profile ~key ~conflicts:(Bool.to_int conflict)
        ~reexecs:0 ~aborts:(Bool.to_int abort_key);
    match lineage with
    | Some (aggressor, reason) ->
      Lineage.note_conflict t.lineage_log ~ver ~key ~aggressor ~reason ~ts
    | None -> ())
  | Busy { kind; ver; eid; cost_us } ->
    Profile.note_busy t.profile ~kind ~ver ~eid ~cost_us
  | Kill { replica } -> Monitor.note_kill t.monitor ~ts ~replica
  | State tr -> Monitor.observe t.monitor ~ts tr
