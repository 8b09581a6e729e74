type kind = Timer | Delivery | Ticker

(* Each event is exactly one of: live (queued, will fire), cancelled
   (queued as a ghost until it reaches the top), fired.  Tracking the
   full state — rather than a single [cancelled] bit — lets [cancel]
   decide whether it is retiring a live event (decrement the live
   count) or hitting a fired/cancelled one (no-op), which is what makes
   [pending] report live events instead of heap entries. *)
type state = Live | Cancelled | Fired

type event = {
  mutable state : state;
  kind : kind;
  action : unit -> unit;
  owner : t;  (* back-pointer so [cancel] can maintain engine counters *)
}

and t = {
  queue : event Heap.t;
  mutable clock : int;
  mutable seq : int;  (* push counter; doubles as the FIFO tiebreak key *)
  mutable fired : int;
  mutable fired_timer : int;
  mutable fired_delivery : int;
  mutable fired_ticker : int;
  (* Observatory counters: plain int increments, no allocation — the
     hot path stays hot.  [live] is the current count of uncancelled
     queued events; [max_live] its high-water mark (the raw high-water
     mark lives in the heap itself). *)
  mutable live : int;
  mutable max_live : int;
  mutable pops : int;
  mutable cancels : int;
  mutable ghost_drains : int;
  (* Read-only tap on fired events (the flight recorder): sees the
     dispatch time and kind, cannot reorder or cancel anything. *)
  mutable observer : (ts:int -> kind -> unit) option;
}

type timer = event

type kind_counts = { k_timer : int; k_delivery : int; k_ticker : int }

type heap_stats = {
  hs_pushes : int;
  hs_pops : int;
  hs_cancels : int;
  hs_ghost_drains : int;
  hs_live : int;
  hs_max_live : int;
  hs_max_raw : int;
}

let create () =
  {
    queue = Heap.create ();
    clock = 0;
    seq = 0;
    fired = 0;
    fired_timer = 0;
    fired_delivery = 0;
    fired_ticker = 0;
    live = 0;
    max_live = 0;
    pops = 0;
    cancels = 0;
    ghost_drains = 0;
    observer = None;
  }

let set_observer t f = t.observer <- Some f

let now t = t.clock

(* [schedule] and [schedule_at] share this rather than one calling the
   other, which would box the forwarded [?kind] on every call. *)
let enqueue t kind ~at f =
  let e = { state = Live; kind; action = f; owner = t } in
  Heap.push t.queue ~time:at ~seq:t.seq e;
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  if t.live > t.max_live then t.max_live <- t.live;
  e

let schedule_at t ?(kind = Timer) ~at f = enqueue t kind ~at:(Int.max at t.clock) f

let schedule t ?(kind = Timer) ~after f =
  enqueue t kind ~at:(t.clock + Int.max 0 after) f

let cancel e =
  match e.state with
  | Live ->
    e.state <- Cancelled;
    e.owner.cancels <- e.owner.cancels + 1;
    e.owner.live <- e.owner.live - 1
  | Cancelled | Fired -> ()

let pending t = t.live

let raw_pending t = Heap.length t.queue

(* Fire (or drain, if cancelled) the minimum entry, keyed at [time].
   [Heap.min_time] and [Heap.remove_min] allocate nothing, so neither
   does dispatch itself. *)
let fire t time =
  let e = Heap.remove_min t.queue in
  t.clock <- Int.max t.clock time;
  t.pops <- t.pops + 1;
  match e.state with
  | Live ->
    e.state <- Fired;
    t.live <- t.live - 1;
    t.fired <- t.fired + 1;
    (match e.kind with
    | Timer -> t.fired_timer <- t.fired_timer + 1
    | Delivery -> t.fired_delivery <- t.fired_delivery + 1
    | Ticker -> t.fired_ticker <- t.fired_ticker + 1);
    (match t.observer with
    | Some f -> f ~ts:t.clock e.kind
    | None -> ());
    e.action ()
  | Cancelled -> t.ghost_drains <- t.ghost_drains + 1
  | Fired -> assert false

let step t =
  if Heap.is_empty t.queue then false
  else begin
    fire t (Heap.min_time t.queue);
    true
  end

let run t =
  while step t do
    ()
  done

let run_until t ~limit =
  let q = t.queue in
  while (not (Heap.is_empty q)) && Heap.min_time q <= limit do
    fire t (Heap.min_time q)
  done;
  t.clock <- Int.max t.clock limit

let events_fired t = t.fired

let events_by_kind t =
  { k_timer = t.fired_timer; k_delivery = t.fired_delivery; k_ticker = t.fired_ticker }

let heap_stats t =
  {
    hs_pushes = t.seq;
    hs_pops = t.pops;
    hs_cancels = t.cancels;
    hs_ghost_drains = t.ghost_drains;
    hs_live = t.live;
    hs_max_live = t.max_live;
    hs_max_raw = Heap.max_size t.queue;
  }
