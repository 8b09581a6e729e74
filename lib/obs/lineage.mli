(** Causal lineage tracing: re-execution provenance.

    Records, per transaction, every read as (key, version-read), every
    re-execution with its triggering event and the {e aggressor}
    transaction that installed the conflicting version, and every
    replica-side conflict blame — assembled into a cross-transaction
    provenance DAG.  On top: a contention explainer (top-K hot keys,
    aggressor/victim matrices by transaction-type label, abort/re-exec
    cascade statistics) and a JSONL serialisation consumed offline by
    [bin/morty_inspect].

    Like every observer in [lib/obs] the recorder is pure — it draws no
    randomness and changes no scheduling — and protocol-agnostic:
    versions are [(ts, id)] int pairs, keys and labels are strings. *)

type ver = int * int
(** A transaction version as an [(ts, id)] pair; [(0, 0)] is v0 (the
    initial, writerless version). *)

val v0 : ver
val pp_ver : Format.formatter -> ver -> unit
(** Prints [v(ts,id)], or [v0] for the initial version — the same
    rendering [Cc_types.Version.pp] uses. *)

val ver_of_string : string -> ver option
(** Parses [v(ts,id)], [ts,id] or [ts:id]. *)

(** What forced a re-execution. *)
type trigger = Missed_read | Stale_version | Truncation_merge

val trigger_name : trigger -> string

(** One recorded lineage event, in transaction program order. *)
type event =
  | Read of { e_ts : int; e_key : string; e_from : ver; e_eid : int }
      (** the transaction read [e_key], observing the version written by
          [e_from], during execution [e_eid] *)
  | Reexec of {
      e_ts : int;
      e_eid : int;  (** the {e new} execution id *)
      e_trigger : trigger;
      e_key : string;
      e_aggressor : ver;
          (** the transaction whose write invalidated the read *)
    }
  | Conflict of { e_ts : int; e_key : string; e_aggressor : ver; e_reason : string }
      (** replica-side blame: validation failure, missed write, wound,
          watermark fence — [e_reason] is the typed cause *)

(** One transaction's complete lineage. *)
type record = {
  r_ver : ver;
  r_label : string;  (** workload transaction-type label, or [?] *)
  r_begin_us : int;
  r_end_us : int;  (** [0] while in flight *)
  r_committed : bool;
  r_reason : string;  (** abort reason; [""] when committed *)
  r_reexecs : int;
  r_work_us : int;  (** client-observed execute+prepare+finalize µs *)
  r_events : event list;  (** program order *)
}

(** {2 Recorder} *)

type t

val null : unit -> t
(** The calling domain's disabled recorder: every hook is a no-op.
    Per-domain via [Domain.DLS] (see {!Sink.null}). *)

val create : ?label:string -> unit -> t
val enabled : t -> bool
val label : t -> string

val next_txn_label : t -> string -> unit
(** Stage the workload transaction-type label (e.g. [payment]) for the
    next {!note_begin} on this recorder.  The harness calls this from
    the workload pick hook just before the transaction body runs; the
    simulation is single-threaded and [begin] is synchronous, so the
    pairing is exact. *)

val note_begin : t -> ver:ver -> ts:int -> unit
val note_read : t -> ver:ver -> key:string -> from:ver -> eid:int -> ts:int -> unit

val note_reexec :
  t -> ver:ver -> eid:int -> trigger:trigger -> key:string -> aggressor:ver ->
  ts:int -> unit

val note_conflict :
  t -> ver:ver -> key:string -> aggressor:ver -> reason:string -> ts:int -> unit

val note_finish :
  t -> ver:ver -> committed:bool -> reason:string -> work_us:int -> ts:int -> unit

val n_txns : t -> int

val records : t -> record list
(** Every transaction seen, sorted by version; transactions still in
    flight appear with [r_end_us = 0] and [r_reason = "in-flight"]. *)

(** {2 Serialisation} *)

val to_jsonl : t -> string
(** One JSON document per line, one per transaction, sorted by version;
    byte-identical across same-seed runs and [--jobs] values. *)

val parse_jsonl : string -> record list
(** Inverse of {!to_jsonl} (tolerates trailing newlines; raises
    [Failure] on malformed input). *)

(** {2 Provenance DAG} *)

type edge_kind = E_read | E_reexec | E_conflict

type edge = {
  e_src : ver;  (** aggressor / superseding writer *)
  e_dst : ver;  (** victim / reader *)
  e_key : string;
  e_kind : edge_kind;
  e_eid : int;  (** victim execution id ([0] outside Morty) *)
}

val edges : record list -> edge list
(** All cross-transaction edges, self-edges and v0 sources skipped,
    in deterministic order. *)

(** {2 Contention explainer} *)

type key_heat = {
  hk_reexecs : int;
  hk_conflicts : int;
  hk_aborts : int;  (** aborted victims whose last blame was this key *)
}

val hot_keys : record list -> int -> (string * key_heat) list
(** Top-n keys by total heat, hottest first (ties by key). *)

val matrix : record list -> ((string * string) * int) list
(** Aggressor-label × victim-label conflict counts over re-exec and
    conflict edges, sorted; unknown aggressors are labelled [?]. *)

type cascades = {
  c_count : int;  (** cascade roots: aggressors that are nobody's victim *)
  c_victims : int;  (** transactions with at least one aggressor *)
  c_depth_hist : (int * int) list;  (** blame-chain depth → victim count *)
  c_depth_p99 : float;
  c_depth_max : int;
  c_max_fanout : int;  (** most victims blamed on one transaction *)
  c_salvaged_us : int;  (** work of victims that still committed *)
  c_lost_us : int;  (** work of victims that aborted *)
}

val cascades : record list -> cascades

type summary = {
  s_txns : int;
  s_edges : int;
  s_cascades : int;
  s_depth_p99 : float;
  s_depth_max : int;
  s_salvaged_us : int;
  s_lost_us : int;
  s_hot_key : string;  (** hottest key, [-] if none *)
}

val summary : record list -> summary

val explain : record list -> ver -> string
(** Human-readable causal account of one transaction: its label and
    fate, every read with the superseding writer, every re-execution
    with trigger/key/aggressor (and the aggressor's own label and
    fate), every replica blame, and the transitive blame chain. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line digest of the recorder's contents. *)
