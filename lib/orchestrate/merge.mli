(** The result mailbox: an indexed reorder buffer.

    Workers complete jobs in whatever order the OS schedules them; the
    merge buffer accepts each result tagged with its submission index
    and releases results strictly in submission order, so downstream
    consumers (CSV writers, progress printers, failure lists) see the
    same sequence a serial sweep would have produced — byte-identical
    output regardless of completion order.

    The buffer itself is plain single-threaded state: {!Pool} calls it
    under its own lock, and the property tests drive it directly with
    adversarial offer permutations. *)

type 'a t

val create : int -> 'a t
(** [create n] makes a buffer for job indices [0 .. n-1]. *)

val capacity : 'a t -> int

val offer : 'a t -> int -> 'a -> unit
(** [offer t i v] files job [i]'s result.  @raise Invalid_argument if
    [i] is out of range or already filled — every job completes exactly
    once, and the mailbox enforces it. *)

val filled : 'a t -> int
(** Results filed so far. *)

val ready : 'a t -> int
(** Length of the contiguous prefix of results present — results
    [0 .. ready-1] have all arrived (delivered or not). *)

val take_ready : 'a t -> (int * 'a) list
(** The results that became contiguous since the last [take_ready], in
    index order.  Calling it repeatedly drains the released prefix
    exactly once; storage is retained for {!get}. *)

val get : 'a t -> int -> 'a option
(** Random access to any filed result. *)

val complete : 'a t -> bool
(** All [capacity] results have been filed. *)
