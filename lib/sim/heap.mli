(** Array-backed binary min-heap, specialised to the event queue.

    Elements are ordered by a 2-level key: primary [time], secondary
    [seq].  The secondary key makes the ordering total, so two events
    scheduled for the same instant fire in scheduling order — a
    requirement for deterministic simulation.

    Storage is struct-of-arrays: keys sit in unboxed [int] arrays, so
    sifting compares ints without following a pointer.  {!push},
    {!min_time} and {!remove_min} allocate nothing except when {!push}
    grows the arrays (capacity doubles).  {!pop} and {!peek_time}
    allocate their option result.

    A removed element is not kept reachable by the heap, with one
    exception: the element whose {!push} first sized the arrays fills
    unused slots for the heap's whole life. *)

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

val min_time : 'a t -> int
(** Time key of the minimum element.  Allocation-free.  Raises
    [Invalid_argument] if the heap is empty. *)

val remove_min : 'a t -> 'a
(** Remove and return the minimum element.  Allocation-free.  Raises
    [Invalid_argument] if the heap is empty. *)

val pop : 'a t -> (int * int * 'a) option
(** Remove and return the minimum element as [(time, seq, v)], or [None]
    if the heap is empty. *)

val peek_time : 'a t -> int option
(** Time key of the minimum element without removing it. *)
