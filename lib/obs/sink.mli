(** The trace sink: span events rendered by {!Bus} and the harness's
    metrics samples.

    A disabled sink ({!null}) records nothing.  An enabled sink
    accumulates events and samples in memory; all timestamps are
    virtual-time microseconds and the only identity is the run seed, so
    output is bit-deterministic across same-seed runs. *)

type arg = I of int | S of string | F of float

type phase = Complete | Instant | Flow_start of int | Flow_finish of int
(** [Flow_start]/[Flow_finish] carry a flow id: Chrome-trace flow
    events ([ph:"s"]/[ph:"f"]) binding the enclosing slices into one
    arrow in Perfetto — used to link a re-execution span to the
    execution it supersedes. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts : int;  (** virtual µs *)
  ev_dur : int;  (** µs, 0 for instants *)
  ev_pid : int;  (** emitting node id *)
  ev_args : (string * arg) list;
}

type sample = {
  sm_ts : int;  (** virtual µs *)
  sm_replica : string;
  sm_cpu_busy : float;  (** busy fraction over the sampling interval *)
  sm_queue : int;  (** message-queue depth *)
  sm_records : int;  (** erecord / prepared-table size *)
  sm_versions : int;  (** version-store key count *)
  sm_wmark_lag : int;  (** now − watermark timestamp, µs; 0 if n/a *)
}

type t

val null : unit -> t
(** The disabled sink for the calling domain: all emitters are no-ops.
    One instance per domain ([Domain.DLS]), never shared across
    domains — a disabled observer still carries mutable fields, and the
    parallel sweep orchestrator must not let any mutable top-level
    value cross domains. *)

val create : seed:int -> t

val enabled : t -> bool
val seed : t -> int

val record : t -> event -> unit
(** Append one event; a no-op on a disabled sink.  The two halves of a
    flow arrow share an id and [name]/[cat]. *)

val sample : t -> sample -> unit

val events : t -> event list
(** In emission (chronological) order. *)

val samples : t -> sample list

val event_count : t -> int
