(** Deterministic pseudo-random number generator (SplitMix64).

    Every experiment in this repository is seeded, so identical
    configurations reproduce identical histories, event interleavings and
    measurements.  SplitMix64 passes BigCrush, is trivially splittable, and
    needs only 64 bits of state.

    The state is an unboxed 8-byte buffer, so a draw allocates nothing:
    {!int}, {!bool} and {!shuffle} are allocation-free, and {!int64} and
    {!float} allocate only their boxed result (nothing where the call is
    inlined).  {!create} and {!split} allocate the new state. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator deterministically derived from
    [seed]. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give every simulated node its own stream so that adding a node
    does not perturb the streams of existing nodes. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
