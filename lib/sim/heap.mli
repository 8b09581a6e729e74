(** Array-backed binary min-heap, specialised to the event queue.

    Elements are ordered by a 2-level key: primary [time], secondary
    [seq].  The secondary key makes the ordering total, so two events
    scheduled for the same instant fire in scheduling order — a
    requirement for deterministic simulation.

    Each element lives in a {e slab slot}: written by {!push} (and
    {!replace_slot}), reset once by {!remove_min}, never moved while
    queued.  The heap itself holds only unboxed [int]s -- [(time, seq,
    slot)] per entry -- so a sift compares and moves ints, follows no
    pointer and triggers no write barrier.  Free slots are kept on an int stack and reused,
    so a slot number is unique among the queued elements but not over
    time; {!Engine} pairs it with [seq] to name one event.  {!push},
    {!min_time} and {!remove_min} allocate nothing except when {!push}
    grows the arrays (capacity doubles).  {!pop} and {!peek_time}
    allocate their option result.

    A removed element is not kept reachable by the heap: free slots hold
    an immediate placeholder, which also lets a growing slab be
    allocated without forcing a minor collection. *)

type 'a t

val create : unit -> 'a t
(** Fresh empty heap. *)

val length : 'a t -> int
(** Number of queued elements. *)

val max_size : 'a t -> int
(** Peak {!length} ever reached — the raw depth high-water mark used by
    the engine-performance observatory.  Maintained by a single compare
    per push, so it costs nothing on the hot path. *)

val is_empty : 'a t -> bool

val push : 'a t -> time:int -> seq:int -> 'a -> unit
(** Insert an element keyed by [(time, seq)]. *)

val push_slot : 'a t -> time:int -> seq:int -> 'a -> int
(** {!push}, returning the slab slot the element occupies until it is
    removed: a non-negative int below the arrays' capacity, so a caller
    can keep per-slot data in arrays of its own. *)

val replace_slot : 'a t -> int -> 'a -> unit
(** [replace_slot t slot v] overwrites the element queued in [slot]
    (as returned by {!push_slot}) with [v], keeping its key, so the old
    element is no longer reachable from the heap.  [slot] must name a
    queued element.  Allocation-free. *)

val min_time : 'a t -> int
(** Time key of the minimum element.  Allocation-free.  Raises
    [Invalid_argument] if the heap is empty. *)

val min_seq : 'a t -> int
(** Sequence key of the minimum element.  Allocation-free.  Raises
    [Invalid_argument] if the heap is empty. *)

val min_slot : 'a t -> int
(** Slab slot of the minimum element.  Allocation-free.  Raises
    [Invalid_argument] if the heap is empty. *)

val remove_min : 'a t -> 'a
(** Remove and return the minimum element.  Allocation-free.  Raises
    [Invalid_argument] if the heap is empty. *)

val pop : 'a t -> (int * int * 'a) option
(** Remove and return the minimum element as [(time, seq, v)], or [None]
    if the heap is empty. *)

val peek_time : 'a t -> int option
(** Time key of the minimum element without removing it. *)
