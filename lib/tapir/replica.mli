(** TAPIR storage replica: multi-version committed store plus an OCC
    validation table of prepared transactions.

    Validation (on [Prepare]):
    - every read must still name the latest committed version of its key,
      and no other transaction may hold a prepared write on it;
    - every write key must be free of prepared reads/writes by others,
      and the transaction's timestamp must exceed the key's latest
      committed version.

    Any failure votes abort — there is no re-execution; clients retry
    whole transactions under randomized exponential backoff, which is
    precisely the behaviour whose idle periods Morty eliminates (§2.1). *)

type t

type stats = {
  mutable prepares : int;
  mutable commit_votes : int;
  mutable abort_votes : int;
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
(** [obs] (default {!Obs.Bus.null}) receives CPU busy time,
    OCC-validation blames (key, aggressor version, reason) and state
    transitions (prepared-table size, commit installs, IR operation
    classing); purely observational.  When it profiles, replies also
    carry message provenance ({!Simnet.Net.set_send_path}) for the
    client-side decomposition. *)

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

val node : t -> Simnet.Net.node

val cpu : t -> Simnet.Cpu.t

val set_peers : t -> Simnet.Net.node array -> unit
(** Group members in index order, used by replica 0 to broadcast
    enforcement-watermark rounds ([Wm_mark]).  Only needed when
    [Config.max_staleness_us > 0]; with no peers set the rounds idle. *)

val applied_wm : t -> int
(** Applied enforcement watermark: every commit with timestamp at or
    below it is present in the store ([-1] until the first install).
    Follower reads are served at snapshots [<= applied_wm]. *)

val load : t -> (string * string) list -> unit

val stats : t -> stats

val prepared_count : t -> int
(** Prepared-transaction table size (metrics sampling). *)

val store_size : t -> int
(** Number of keys in the committed store (metrics sampling). *)

val read_current : t -> string -> string option
(** Latest committed value (tests). *)

val state_view : t -> Obs.Monitor.state_view
(** Per-replica introspection snapshot: lifecycle flags, prepared-table
    size, store shape and vote counters — what a post-mortem bundle
    records for every replica. *)

(** {1 Amnesia-crash lifecycle} *)

val stop : t -> unit
(** Mark this incarnation dead: it stops sending and handling messages,
    including CPU jobs already queued before the kill. *)

val is_stopped : t -> bool

type snapshot
(** Transferable replica state: committed store plus the prepared table
    (with per-key markers re-derived on install). *)

val snapshot : t -> snapshot

val install : t -> snapshot -> unit
(** Monotone merge of a donor snapshot into this replica: committed
    versions union, prepared entries adopted only when absent.  Install
    snapshots from {e all} surviving group peers so the fresh
    incarnation misses no committed write nor in-flight prepare. *)

val snapshot_bytes : snapshot -> int
(** Estimated wire size, for state-transfer accounting. *)
