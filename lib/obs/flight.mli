(** Flight recorder: a bounded ring buffer of recent events.

    Keeps the last [capacity] (default 4096) fine-grained events —
    engine dispatches, message sends/deliveries with provenance, the
    trace sink's entries ({!Bus}) — so a post-mortem bundle can ship
    "the last N things that happened" before a violation, audit failure
    or kill.  Recording is purely observational and deterministic; the
    {!null} recorder makes every hook a single branch. *)

type entry =
  | Span of { fl_ts : int; name : string; cat : string; pid : int; dur : int }
  | Send of { fl_ts : int; src : int; dst : int; kind : string; dropped : bool }
  | Deliver of {
      fl_ts : int;
      src : int;
      dst : int;
      kind : string;
      send_us : int;  (** when the message was sent, virtual µs *)
    }
  | Engine_ev of { fl_ts : int; kind : string }

type t

val null : unit -> t
(** The calling domain's disabled recorder (per-domain via
    [Domain.DLS]; see {!Sink.null}): recording is a no-op. *)

val create : ?capacity:int -> unit -> t

val enabled : t -> bool
val capacity : t -> int

val record : t -> entry -> unit

val total : t -> int
(** Entries ever recorded (≥ the ring's current length). *)

val entries : t -> entry list
(** Oldest → newest; at most [capacity] entries. *)

val to_json : t -> string
(** Deterministic JSON: capacity, totals, and the ring contents. *)
