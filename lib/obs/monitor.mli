(** Online invariant monitors: a runtime conscience for the protocol
    stacks.

    Replicas and coordinators report typed state transitions as they
    happen; the monitor checks each against the invariant it witnesses
    and records violations with evidence.  Monitors are pure observers:
    they never change scheduling, draw no randomness and emit nothing
    into the run, so attaching one to a seeded run leaves its output
    byte-identical.  The {!null} monitor reduces every hook to a single
    branch.

    Invariants checked (names as reported in violations):
    - ["watermark-monotone"] — a replica's truncation watermark never
      regresses within one incarnation.
    - ["truncation-safety"] — a read below the watermark is only
      accepted when it names the newest committed write (the PR 2
      liveness carve-out).
    - ["records-bounded"] — erecord / prepared-set size stays under a
      configurable bound.
    - ["fastpath-votes"] — a fast-path commit rests on a full quorum of
      matching Commit votes.
    - ["mvtso-read-order"] — an MVTSO-style read is always served a
      version strictly below the reader's timestamp.
    - ["store-version-monotone"] — truncation GC never drops a key's
      newest committed version.
    - ["lock-exclusion"] — a Spanner lock grant is compatible with the
      holders the table records (one writer, no concurrent readers).
    - ["ir-op-class"] — TAPIR executes each IR operation under its fixed
      class: Prepare/Finalize as consensus, Commit/Abort as
      inconsistent.
    - ["ro-snapshot-watermark"] — a follower-read snapshot is pinned and
      served at or above the serving replica's watermark (below it, GC
      may already have dropped versions the snapshot must observe).
    - ["ro-staleness-bound"] — a served RO snapshot's staleness at pin
      time respects the configured [max_staleness_us] bound. *)

type ver = int * int
(** A transaction version as a [(ts, id)] pair, ordered
    lexicographically — [obs] stays protocol-type-free. *)

type lock_mode = Read | Write

type transition =
  | Watermark of { replica : string; wm : ver }
  | Trunc_read of { replica : string; key : string; served : ver; newest : ver }
  | Record_count of { replica : string; count : int }
  | Fast_path of { ver : ver; quorum : int; votes : string list }
  | Read_serve of { replica : string; key : string; reader : ver; served : ver }
  | Commit_install of { replica : string; key : string; ver : ver }
  | Gc_survivor of { replica : string; key : string; newest : ver option; wm : ver }
  | Lock_grant of {
      replica : string;
      key : string;
      txn : ver;
      mode : lock_mode;
      writer : ver option;
      readers : ver list;
    }
  | Ir_op of { replica : string; op : string; consensus : bool }
  | Ro_pin of {
      replica : string;
      snap : ver;
      wm : ver;
      staleness_us : int;
      bound_us : int;
    }
      (** a follower-read snapshot was pinned: checks both
          ["ro-snapshot-watermark"] and ["ro-staleness-bound"] *)
  | Ro_serve of { replica : string; key : string; snap : ver; wm : ver }
      (** a follower-read was served one key at [snap]: checks
          ["ro-snapshot-watermark"] only — a long-running RO transaction
          lawfully ages past the staleness bound while it runs *)

type violation = {
  vi_invariant : string;  (** an invariant name listed above *)
  vi_ts : int;  (** virtual µs *)
  vi_where : string;  (** replica label, or ["client"] *)
  vi_detail : string;  (** human-readable evidence *)
}

type incident = { in_ts : int; in_kind : string; in_detail : string }
(** Non-violation events worth a post-mortem, currently replica kills. *)

type state_view = {
  v_replica : string;
  v_stopped : bool;
  v_recovering : bool;
  v_watermark : ver option;
  v_records : int;  (** erecord / prepared-set size *)
  v_store_keys : int;
  v_store_versions : int;
  v_counters : (string * int) list;  (** protocol-specific extras *)
}
(** The per-replica introspection snapshot every stack implements
    ([Replica.state_view]); a post-mortem bundle captures one per
    replica. *)

type t

val null : unit -> t
(** The calling domain's disabled monitor: every hook is a no-op.
    Per-domain via [Domain.DLS] (see {!Sink.null}) — the disabled
    instance still owns hash tables, which must not be shared across
    the orchestrator's worker domains. *)

val create : ?max_records:int -> unit -> t
(** [max_records] bounds the ["records-bounded"] invariant
    (default [2^20]). *)

val enabled : t -> bool

val observe : t -> ts:int -> transition -> unit
(** Feed one state transition at virtual time [ts].  Callers should
    guard transition construction with {!enabled} so the null monitor
    costs one branch. *)

val note_kill : t -> ts:int -> replica:string -> unit
(** An amnesia-crash kill: records an incident and resets the
    per-replica tracking (the restarted incarnation may lawfully trail
    its predecessor's watermark and store). *)

val violations : t -> violation list
(** Chronological; storage is capped but {!n_violations} counts all. *)

val n_violations : t -> int
val n_observed : t -> int
val incidents : t -> incident list

val register_views : t -> (unit -> state_view list) -> unit
(** Register a snapshot source (the harness registers one per cluster);
    sources are evaluated lazily by {!views} at dump time. *)

val views : t -> state_view list

val first_incident_ts : t -> int option
(** Earliest violation or incident timestamp — centres a bundle's
    trace slice. *)

val pp_violation : Format.formatter -> violation -> unit
