(** Spanner group replica.

    Replica 0 of each group is the Paxos {e leader}: it owns the lock
    table, serves all reads (the paper's clients read from leaders),
    runs the participant side of two-phase commit, and replicates
    prepare/commit records to its followers (majority acknowledgement
    before acting).  Followers merely acknowledge Paxos messages and
    apply committed writes.

    Timestamp discipline: the leader hands out monotonically increasing
    prepare timestamps that also exceed every applied commit timestamp,
    so the version order of committed data matches the lock order —
    the property Spanner gets from TrueTime.  Read-only transactions
    read below a {e safe time}: the minimum prepare timestamp of any
    in-flight prepared transaction. *)

type t

type stats = {
  mutable wounds : int;
  mutable prepares : int;
  mutable nacks : int;
  mutable ro_reads : int;
  mutable lock_waits : int;  (** lock requests that had to queue *)
}

val create :
  cfg:Config.t ->
  engine:Sim.Engine.t ->
  net:Msg.t Simnet.Net.t ->
  group:int ->
  index:int ->
  region:Simnet.Latency.region ->
  cores:int ->
  ?obs:Obs.Bus.t ->
  unit ->
  t
(** [obs] (default {!Obs.Bus.null}) receives CPU busy time, lock
    contention and wound blames (victim, key, wounding transaction) and
    state transitions (lock grants with holder evidence, prepared-table
    size, commit installs); purely observational.  When it profiles,
    replies also carry message provenance ({!Simnet.Net.set_send_path})
    for the client-side decomposition. *)

val create_at :
  node:Simnet.Net.node ->
  cfg:Config.t ->
  engine:Sim.Engine.t ->
  net:Msg.t Simnet.Net.t ->
  group:int ->
  index:int ->
  cores:int ->
  ?obs:Obs.Bus.t ->
  unit ->
  t
(** Like {!create}, but re-registers a fresh (amnesiac) incarnation on a
    dead replica's existing [node] instead of allocating a new one. *)

val set_peers : t -> int array -> unit
(** Node ids of the group's replicas in index order (leader first). *)

val node : t -> Simnet.Net.node

val cpu : t -> Simnet.Cpu.t

val is_leader : t -> bool

val follower_safe_ts : t -> int
(** Safe time this follower can serve snapshot reads at, derived from
    gap-free leader applies and heartbeats ([-1] until the first one
    lands; only advances when [Config.max_staleness_us > 0]). *)

val load : t -> (string * string) list -> unit

val stats : t -> stats

val read_current : t -> string -> string option
(** Latest committed value (tests). *)

val waiting_locks : t -> int
(** Queued lock requests (tests). *)

val debug_counts : t -> int * int * int * int
(** (prepared, pending prepares, queued read-only reads, queued lock
    requests) — diagnostics. *)

val prepared_count : t -> int
(** Prepared-transaction table size (metrics sampling). *)

val store_size : t -> int
(** Number of keys in the committed store (metrics sampling). *)

val state_view : t -> Obs.Monitor.state_view
(** Per-replica introspection snapshot: lifecycle flags, prepared-table
    size, store shape, wound/nack counters and lock-queue depth — what a
    post-mortem bundle records for every replica. *)

(** {1 Amnesia-crash lifecycle}

    Only {e followers} may be killed: the content-free Paxos emulation
    replicates record {e existence}, not payloads, so a leader's
    committed writes survive nowhere else and an amnesiac leader could
    ghost-lose committed data. *)

val stop : t -> unit
(** Mark this incarnation dead: it stops sending and handling messages,
    including CPU jobs already queued before the kill. *)

val is_stopped : t -> bool

type snapshot
(** Transferable follower state: the committed multi-version store. *)

val snapshot : t -> snapshot

val install : t -> snapshot -> unit
(** Monotone merge of a donor snapshot (committed-version union); also
    advances the timestamp high-water marks past every transferred
    commit.  Install snapshots from {e all} surviving group peers. *)

val snapshot_bytes : snapshot -> int
(** Estimated wire size, for state-transfer accounting. *)
