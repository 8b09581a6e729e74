(** Spanner client: 2PL read-write transactions with wound-wait and
    two-phase commit over Paxos groups; lock-free snapshot read-only
    transactions.

    All reads — including read-only ones — are served by group leaders
    (§5 Setup).  A wounded transaction completes its control flow
    (reads answered lock-free) and reports [Aborted] at commit; the
    harness retries with randomized exponential backoff.  Committed
    read-write transactions pay the TrueTime commit-wait of
    [Config.truetime_eps_us]. *)

type t

type ctx

type stats = {
  mutable begun : int;
  mutable committed : int;
  mutable aborted : int;
  mutable ro_begun : int;
  mutable wounds_received : int;
}

type record = Cc_types.Txn_record.t
(** Per-transaction history record, handed to [on_finish]. *)

val create :
  cfg:Config.t ->
  engine:Sim.Engine.t ->
  net:Msg.t Simnet.Net.t ->
  rng:Sim.Rng.t ->
  region:Simnet.Latency.region ->
  leaders:int array ->
  partition:(string -> int) ->
  ?groups:int array array ->
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Profile.t ->
  ?mon:Obs.Monitor.t ->
  ?lineage:Obs.Lineage.t ->
  ?on_finish:(record -> unit) ->
  unit ->
  t
(** [leaders.(g)] is the node id of group [g]'s leader.  [groups.(g)]
    (default: just the leaders) lists group [g]'s full membership,
    leader first — required for follower reads, whose snapshot requests
    rotate across the whole group.  [prof] receives latency
    decomposition and outcome hooks (default {!Obs.Profile.null});
    [mon] (default {!Obs.Monitor.null}) checks snapshot pins against
    the staleness bound; [lineage] (default {!Obs.Lineage.null})
    records per-transaction reads and typed finishes, keyed by the
    begin version so replica-side wound records join up. *)

val node : t -> Simnet.Net.node

val stats : t -> stats

val last_comps : t -> int array
(** Latency-component cells accumulated for the transaction currently
    (or most recently) driven by this client; see {!Obs.Profile}.  The
    closed-loop driver snapshots this per attempt. *)

val begin_ : t -> (ctx -> unit) -> unit

val begin_ro : t -> (ctx -> unit) -> unit
(** Lock-free snapshot read at [ro_ts = begin_ts − truetime_eps].  With
    [Config.max_staleness_us = 0] (default) every read goes to the
    key's group leader, queueing until safe time passes the snapshot.
    Otherwise reads rotate across the whole group (closest replica
    first, leader included, capped jittered backoff between redirects):
    followers serve from their heartbeat-driven safe time and bounce
    requests they cannot serve.  When the rotation exhausts after at
    least one stale bounce the transaction aborts with
    {!Obs.Abort_reason.Stale_replica}; with silence only, [Timeout]. *)

val get : t -> ctx -> string -> (ctx -> string -> unit) -> unit

val get_for_update : t -> ctx -> string -> (ctx -> string -> unit) -> unit

val put : t -> ctx -> string -> string -> ctx

val commit : t -> ctx -> (Cc_types.Outcome.t -> unit) -> unit

val abort : t -> ctx -> unit
(** Client-initiated rollback: releases held locks; no outcome
    continuation fires. *)
