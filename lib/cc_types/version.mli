(** Transaction versions.

    A version [(ts, id)] is assigned at [Begin] from the coordinator's
    loosely synchronised clock [ts] plus a unique coordinator identifier
    [id] (§4.2).  Versions are totally ordered lexicographically and
    define every transaction's expected position in the serial order. *)

type t = { ts : int; id : int }

val make : ts:int -> id:int -> t

val zero : t
(** The version of the initial loading transaction [T_init]; smaller than
    every version produced at runtime. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val ( < ) : t -> t -> bool

val ( <= ) : t -> t -> bool

val is_zero : t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val to_pair : t -> int * int
(** The [(ts, id)] pair observers key versions by; {!zero}, the
    writerless initial data, maps to [(0, 0)]. *)

module Map : Map.S with type key = t

module Set : Set.S with type elt = t

val hash : t -> int
