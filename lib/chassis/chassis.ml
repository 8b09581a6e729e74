module Version = Cc_types.Version
module Outcome = Cc_types.Outcome
module Net = Simnet.Net
module Engine = Sim.Engine

type seg = Exec | Reexec | Prep | Fin

type life = {
  ver : Version.t;
  start_us : int;
  mutable seg : seg;
  mutable seg_start_us : int;
  mutable exec_us : int;
  mutable prep_us : int;
  mutable fin_us : int;
  mutable finished : bool;
  mutable on_outcome : Outcome.t -> unit;
}

type 'x history = {
  reads : 'x -> (string * Version.t) list;
  writes : 'x -> string list;
  ro : 'x -> bool;
  staleness_us : 'x -> int;
}

type ('x, 'm) t = {
  engine : Engine.t;
  net : 'm Net.t;
  node : Net.node;
  obs : Obs.Bus.t;
  on_finish : (Cc_types.Txn_record.t -> unit) option;
  history : 'x history;
  closest_ix : int array;
  mutable cur : life option;
  mutable comps : int array;
  mutable last_ev : int;
}

let create ~engine ~net ~region ~groups ~obs ~on_finish history =
  let node = Net.add_node net ~region in
  let closest members =
    let n = Array.length members in
    let rec scan i =
      if i >= n then 0
      else if Net.region_of net members.(i) = region then i
      else scan (i + 1)
    in
    scan 0
  in
  {
    engine; net; node; obs; on_finish; history;
    closest_ix = Array.map closest groups;
    cur = None;
    comps = Array.make Obs.Profile.n_cells 0;
    last_ev = 0;
  }

let emit c ev = Obs.Bus.emit c.obs ~ts:(Engine.now c.engine) ~pid:c.node ev
let send c dst msg = Net.send c.net ~src:c.node ~dst msg

(* --- Critical-path attribution ------------------------------------------ *)

let phase_row l =
  Obs.Profile.phase_index
    (match l.seg with
    | Exec | Reexec -> Obs.Profile.P_execute
    | Prep -> Obs.Profile.P_prepare
    | Fin -> Obs.Profile.P_finalize)

(* Charge the wait since the last progress point to the current
   transaction's phase, decomposed along the provenance of the message
   being delivered right now ([None] from timer callbacks).  Exhaustive:
   every microsecond of a transaction's life at this client lands in
   exactly one component cell. *)
let profile_wait c reply =
  match c.cur with
  | None -> ()
  | Some l ->
    let now = Engine.now c.engine in
    Obs.Profile.attribute ~comps:c.comps ~phase:(phase_row l) ~t0:c.last_ev
      ~t1:now reply;
    c.last_ev <- now

let profile_arrival c =
  let reply =
    match Net.current_delivery c.net with
    | Some d ->
      Some
        (d.Net.di_send_us, d.di_path.Net.p_transit_us,
         d.di_path.Net.p_queue_us, d.di_path.Net.p_service_us)
    | None -> None
  in
  profile_wait c reply

(* Provenance feeds only the profiler: skip it when none is attached. *)
let serve c handle =
  Net.set_handler c.net c.node (fun ~src msg ->
      if Obs.Bus.profiling c.obs then profile_arrival c;
      handle ~src msg)

(* --- Transaction life ---------------------------------------------------- *)

let no_outcome (_ : Outcome.t) = ()

let begin_ c ver ~ro =
  let now = Engine.now c.engine in
  let l =
    { ver; start_us = now; seg = Exec; seg_start_us = now; exec_us = 0;
      prep_us = 0; fin_us = 0; finished = false; on_outcome = no_outcome }
  in
  c.cur <- Some l;
  c.comps <- Array.make Obs.Profile.n_cells 0;
  c.last_ev <- now;
  if Obs.Bus.on c.obs then emit c (Obs.Bus.Begin { ver = Version.to_pair ver; ro });
  l

let ended l = l.finished

let switch c l ~eid next =
  let now = Engine.now c.engine in
  let dur = now - l.seg_start_us in
  let name =
    match l.seg with
    | Exec ->
      l.exec_us <- l.exec_us + dur;
      "execute"
    | Reexec ->
      l.exec_us <- l.exec_us + dur;
      "reexecute"
    | Prep ->
      l.prep_us <- l.prep_us + dur;
      "prepare"
    | Fin ->
      l.fin_us <- l.fin_us + dur;
      "finalize"
  in
  if Obs.Bus.on c.obs then
    emit c
      (Obs.Bus.Phase
         { ver = Version.to_pair l.ver; name; start_us = l.seg_start_us;
           eid });
  l.seg_start_us <- now;
  l.seg <- next

(* Tail wait, last segment, [Finish].  The tail wait is nonzero only
   when the end came from a timer rather than a message arrival
   (arrivals already attributed up to now).  The last segment's kind
   stays open: nothing switches a finished transaction's segment but a
   TAPIR group still evaluated by the commit timer that finished it. *)
let close c l outcome ~eid ~reexecs =
  l.finished <- true;
  (match c.cur with
  | Some cur when cur == l ->
    profile_wait c None;
    c.cur <- None
  | Some _ | None -> ());
  switch c l ~eid l.seg;
  if Obs.Bus.on c.obs then
    emit c
      (Obs.Bus.Finish
         { ver = Version.to_pair l.ver; start_us = l.start_us;
           abort = Outcome.reason outcome;
           reexecs; work_us = l.exec_us + l.prep_us + l.fin_us;
           final_eid = Option.value eid ~default:0 })

let finish c l x outcome ~ver ~eid ~reexecs =
  close c l outcome ~eid ~reexecs;
  (match c.on_finish with
  | Some f ->
    let h = c.history in
    f
      {
        Cc_types.Txn_record.h_ver = ver;
        h_committed = Outcome.is_committed outcome;
        h_abort = Outcome.reason outcome;
        h_reads = h.reads x;
        h_writes = h.writes x;
        h_start_us = l.start_us;
        h_end_us = Engine.now c.engine;
        h_exec_us = l.exec_us;
        h_prepare_us = l.prep_us;
        h_finalize_us = l.fin_us;
        h_ro = h.ro x;
        h_staleness_us = h.staleness_us x;
      }
  | None -> ());
  l.on_outcome outcome

let user_abort = Outcome.Aborted Obs.Abort_reason.User_abort
let retire c l = close c l user_abort ~eid:None ~reexecs:None

let discard c l =
  l.finished <- true;
  match c.cur with
  | Some cur when cur == l -> c.cur <- None
  | Some _ | None -> ()

(* --- Timers that hold ids ------------------------------------------------ *)

let arm c tbl ~after id f =
  Engine.schedule c.engine ~after (fun () ->
      match Hashtbl.find_opt tbl id with Some v -> f v | None -> ())

(* --- Follower-read redirects --------------------------------------------- *)

let attempt_cap ~replicas = max (2 * replicas) 6

(* Capped exponential with full seeded jitter, so clients bounced off
   the same stale replica do not stampede the next one in lockstep. *)
let backoff rng ~attempt =
  Sim.Backoff.full_jitter rng ~base_us:5_000 ~cap_us:160_000 ~attempt

let exhausted ~saw_stale =
  if saw_stale then Obs.Abort_reason.Stale_replica else Obs.Abort_reason.Timeout

type 'c pend = {
  pd_sent : int;
  pd_key : string;
  mutable pd_tries : int;
  pd_cont : 'c -> string -> unit;
}

type follower = {
  mutable snap : int;
  mutable stale_us : int;
  mutable saw_stale : bool;
  mutable doomed : Obs.Abort_reason.t option;
  rot : int array;
}

let follower c ~snap =
  { snap; stale_us = 0; saw_stale = false; doomed = None;
    rot = Array.make (Array.length c.closest_ix) 0 }

let rotated c fr ~g ~n = (c.closest_ix.(g) + fr.rot.(g)) mod n

let redirect fr rng ~replicas ~g p =
  p.pd_tries <- p.pd_tries + 1;
  if p.pd_tries >= attempt_cap ~replicas then None
  else begin
    fr.rot.(g) <- fr.rot.(g) + 1;
    Some (backoff rng ~attempt:p.pd_tries)
  end

let doom fr reason pending release =
  fr.doomed <- Some reason;
  List.iter
    (fun (_, p) -> release p)
    (List.sort (fun (a, _) (b, _) -> compare a b) pending)

(* --- Read/write-buffer helpers ------------------------------------------- *)

let participants partition reads writes =
  let tbl = Hashtbl.create 4 in
  List.iter (fun (k, _) -> Hashtbl.replace tbl (partition k) ()) reads;
  List.iter (fun (k, _) -> Hashtbl.replace tbl (partition k) ()) writes;
  Hashtbl.fold (fun g () acc -> g :: acc) tbl []

let final_writes writes =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (k, _) ->
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    writes
