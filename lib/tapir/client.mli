(** TAPIR client: interactive OCC transactions over inconsistent
    replication, with integrated two-phase commit across groups.

    Reads go to the closest replica of the key's group and observe
    committed data only (so serialization windows stretch from the read
    until commit — §2.1's analysis of why OCC suffers under contention).
    On abort the caller retries the whole transaction; the harness
    applies randomized exponential backoff. *)

type t

type ctx

type stats = {
  mutable begun : int;
  mutable committed : int;
  mutable aborted : int;
  mutable fast_commits : int;
  mutable slow_commits : int;
}

type record = Cc_types.Txn_record.t
(** Per-transaction history record, handed to [on_finish]. *)

val create :
  cfg:Config.t ->
  engine:Sim.Engine.t ->
  net:Msg.t Simnet.Net.t ->
  rng:Sim.Rng.t ->
  region:Simnet.Latency.region ->
  groups:int array array ->
  partition:(string -> int) ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Profile.t ->
  ?mon:Obs.Monitor.t ->
  ?lineage:Obs.Lineage.t ->
  ?on_finish:(record -> unit) ->
  unit ->
  t
(** [groups.(g)] lists the replica node ids of group [g]; [partition]
    maps a key to its group index.  [prof] receives latency
    decomposition and outcome hooks (default {!Obs.Profile.null});
    [mon] (default {!Obs.Monitor.null}) checks follower-read snapshot
    pins against the staleness bound; [lineage] (default
    {!Obs.Lineage.null}) records per-transaction reads and typed
    finishes (TAPIR never re-executes, so no re-execution events). *)

val node : t -> Simnet.Net.node

val stats : t -> stats

val last_comps : t -> int array
(** Latency-component cells accumulated for the transaction currently
    (or most recently) driven by this client; see {!Obs.Profile}.  The
    closed-loop driver snapshots this per attempt. *)

val begin_ : t -> (ctx -> unit) -> unit

val begin_ro : t -> (ctx -> unit) -> unit
(** With [Config.max_staleness_us = 0] (default), same as {!begin_}.
    Otherwise the transaction becomes a follower read: the first read
    adaptively pins a single snapshot timestamp at the serving
    replica's applied enforcement watermark (closest replica first,
    rotating through the group under capped jittered backoff when one
    is unreachable, too stale, or lags the pinned snapshot), every
    later read is served at that same snapshot by whichever replica of
    the key's group has applied it, and commit needs no validation.
    When redirects exhaust after at least one too-stale reply the
    transaction aborts with {!Obs.Abort_reason.Stale_replica}; with
    silence only, [Timeout]. *)

val get : t -> ctx -> string -> (ctx -> string -> unit) -> unit

val get_for_update : t -> ctx -> string -> (ctx -> string -> unit) -> unit

val put : t -> ctx -> string -> string -> ctx

val commit : t -> ctx -> (Cc_types.Outcome.t -> unit) -> unit

val abort : t -> ctx -> unit
(** Client-initiated rollback; no outcome continuation fires. *)
