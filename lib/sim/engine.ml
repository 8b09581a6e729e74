type kind = Timer | Delivery | Ticker

(* An event is its action in the heap's slab plus two per-slot facts
   kept here, indexed by the slab slot: its kind as one byte, and its
   [stamp] -- the event's [seq] while it is live, [-1] once it has fired
   or been cancelled.  An event is live exactly when its slot's stamp
   still equals its [seq]: a cancelled one stays queued as a ghost until
   it reaches the top, and a slot is reused only after its entry has
   been popped.  So the per-event path allocates nothing and writes no
   pointer outside the slab.  [cancel] overwrites a ghost's action with
   [ghost], a static closure, so a cancelled event keeps nothing of its
   closure reachable while it waits to be drained. *)
type t = {
  queue : (unit -> unit) Heap.t;
  mutable stamps : int array;
  mutable kinds : Bytes.t;
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

(* [seq lsl slot_bits lor slot]: an immediate int.  [seq] is unique
   over the engine's life, so a handle never matches a later event that
   reuses its slot. *)
type timer = int

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

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
    stamps = [||];
    kinds = Bytes.empty;
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

let code_of_kind = function Timer -> 0 | Delivery -> 1 | Ticker -> 2

let kind_of_code = function 0 -> Timer | 1 -> Delivery | _ -> Ticker

(* Cover slab slot [slot] with the per-slot arrays; the heap's slots
   stay below its capacity, so doubling keeps this rare. *)
let grow_slots t slot =
  if slot > slot_mask then failwith "Engine: too many events queued";
  let len = Array.length t.stamps in
  let len' = Int.min (slot_mask + 1) (Int.max (slot + 1) (Int.max 16 (2 * len))) in
  let stamps = Array.make len' (-1) in
  Array.blit t.stamps 0 stamps 0 len;
  let kinds = Bytes.make len' '\000' in
  Bytes.blit t.kinds 0 kinds 0 len;
  t.stamps <- stamps;
  t.kinds <- kinds

(* [schedule] and [schedule_at] share this rather than one calling the
   other, which would box the forwarded [?kind] on every call. *)
let enqueue t kind ~at f =
  let seq = t.seq in
  let slot = Heap.push_slot t.queue ~time:at ~seq f in
  if slot >= Array.length t.stamps then grow_slots t slot;
  Array.unsafe_set t.stamps slot seq;
  Bytes.unsafe_set t.kinds slot (Char.unsafe_chr (code_of_kind kind));
  t.seq <- seq + 1;
  t.live <- t.live + 1;
  if t.live > t.max_live then t.max_live <- t.live;
  (seq lsl slot_bits) lor slot

let schedule_at t ?(kind = Timer) ~at f = enqueue t kind ~at:(Int.max at t.clock) f

let schedule t ?(kind = Timer) ~after f =
  enqueue t kind ~at:(t.clock + Int.max 0 after) f

let ghost () = ()

let cancel t timer =
  let slot = timer land slot_mask in
  if slot < Array.length t.stamps && t.stamps.(slot) = timer lsr slot_bits then begin
    t.stamps.(slot) <- -1;
    Heap.replace_slot t.queue slot ghost;
    t.cancels <- t.cancels + 1;
    t.live <- t.live - 1
  end

let pending t = t.live

let raw_pending t = Heap.length t.queue

(* Fire (or drain, if cancelled) the minimum entry, keyed at [time].
   The heap's accessors allocate nothing, so neither does dispatch
   itself. *)
let fire t time =
  let q = t.queue in
  let seq = Heap.min_seq q and slot = Heap.min_slot q in
  let action = Heap.remove_min q in
  t.clock <- Int.max t.clock time;
  t.pops <- t.pops + 1;
  if Array.unsafe_get t.stamps slot = seq then begin
    Array.unsafe_set t.stamps slot (-1);
    t.live <- t.live - 1;
    t.fired <- t.fired + 1;
    let kind = kind_of_code (Char.code (Bytes.unsafe_get t.kinds slot)) in
    (match kind with
    | Timer -> t.fired_timer <- t.fired_timer + 1
    | Delivery -> t.fired_delivery <- t.fired_delivery + 1
    | Ticker -> t.fired_ticker <- t.fired_ticker + 1);
    (match t.observer with
    | Some f -> f ~ts:t.clock kind
    | None -> ());
    action ()
  end
  else t.ghost_drains <- t.ghost_drains + 1

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
