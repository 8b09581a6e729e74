(** Per-execution decisions (§4.2, "Abort vs. Abandon").

    Each transaction {e execution} reaches [Commit] or [Abandon]; the
    transaction commits iff one of its executions commits, and aborts
    only when all executions are abandoned (signalled by the [abort?]
    flag on Decide messages). *)

type t = Commit | Abandon

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
