(** Deterministic critical-path profiler.

    Explains {e where time and cycles go}: per-transaction latency
    decomposition (network transit, CPU queueing, CPU service,
    quorum-straggler wait, client backoff, protocol wait — per protocol
    phase), a wasted-work account classifying every core-busy
    microsecond as committed-useful / re-executed-then-salvaged /
    aborted-and-discarded, and a per-key contention heatmap.

    Fed by {!Bus} events and by message provenance from
    [Simnet.Net]/[Simnet.Cpu].  All hooks are observational — they draw
    no randomness and change no scheduling — and this module is
    protocol-agnostic: versions are [(ts, id)] int pairs, message kinds
    and keys are strings. *)

type t

val null : unit -> t
(** The calling domain's disabled profiler: every hook is a no-op.
    Per-domain via [Domain.DLS] (see {!Sink.null}) — the disabled
    instance still owns hash tables and accumulator arrays, which must
    not be shared across the orchestrator's worker domains. *)

val create : ?label:string -> unit -> t

val enabled : t -> bool
val label : t -> string

(** {2 Latency decomposition}

    Component cells are laid out as a flat
    [n_phases * n_comps] int array ("comps"), one per transaction,
    accumulated by the clients and the closed-loop driver. *)

type phase = P_execute | P_prepare | P_finalize | P_retry
type comp = C_transit | C_queue | C_service | C_straggler | C_backoff | C_proto

val n_phases : int
val n_comps : int
val n_cells : int

val phase_index : phase -> int
val comp_index : comp -> int

val cell : phase -> comp -> int
(** Index of a (phase, component) cell in a comps array. *)

val phase_name : int -> string
val comp_name : int -> string

val attribute :
  comps:int array ->
  phase:int ->
  t0:int ->
  t1:int ->
  (int * int * int * int) option ->
  unit
(** [attribute ~comps ~phase ~t0 ~t1 reply] charges the client wait
    interval [\[t0, t1\]] to component cells of [phase].  [reply] is the
    provenance of the message whose arrival ended the wait —
    [(send_us, transit_us, queue_us, service_us)] from
    [Simnet.Net.current_delivery] — or [None] when a timer ended it.
    The message's causal chain is intersected with the interval; a chain
    that began before [t0] marks a trailing quorum reply and charges the
    whole interval to quorum-straggler wait, otherwise the uncovered
    remainder is protocol wait.  The charges always sum to exactly
    [t1 - t0]. *)

val record_txn : t -> latency_us:int -> comps:int array -> unit
(** Record one committed transaction (the driver calls this once per
    commit inside the measurement window, with comps accumulated over
    every attempt plus backoff).  The array is copied. *)

val txn_records : t -> (int * int array) list
(** Recorded transactions in commit order: [(latency_us, comps)].  The
    profiler guarantees [Array.fold_left (+) 0 comps = latency_us] for
    each. *)

val n_txns : t -> int

val decomposition : t -> int array
(** Aggregate comps summed over all recorded transactions. *)

val dominant_component : t -> string
(** Name of the component with the largest aggregate share. *)

(** {2 Wasted-work account} *)

val note_busy :
  t -> kind:string -> ver:(int * int) option -> eid:int -> cost_us:int -> unit
(** Charge one completed CPU job: [kind] is the message label, [ver] the
    transaction version it served ([None] for infrastructure work —
    truncation, catch-up, Paxos bookkeeping), [eid] the Morty execution
    id (0 elsewhere). *)

val note_outcome : t -> ver:(int * int) -> committed:bool -> final_eid:int -> unit
(** Final fate of a transaction version, from the clients' finish path
    (all transactions, windowed or not). *)

type waste = {
  w_useful_us : int;
      (** committed transactions' final executions, plus infrastructure *)
  w_salvaged_us : int;
      (** Morty: superseded executions of transactions that later
          committed — re-executed, prefix salvaged *)
  w_discarded_us : int;
      (** aborted transactions, and work for transactions still in
          flight at the horizon *)
  w_infra_us : int;  (** transaction-less work, already inside useful *)
  w_total_us : int;  (** = useful + salvaged + discarded, exactly *)
}

val waste : t -> waste

val busy_by_kind : t -> (string * int) list
(** Core-busy µs per message kind, sorted by kind name. *)

(** {2 Key-contention heatmap} *)

type key_acc = {
  mutable k_conflicts : int;
  mutable k_reexecs : int;
  mutable k_aborts : int;
}

val note_key : t -> key:string -> conflicts:int -> reexecs:int -> aborts:int -> unit
(** Add to [key]'s counters: contention a replica observed (a
    validation check fired, a lock request queued, a prepare suspended
    on a dependency), Morty re-executions from a corrected read of
    [key], and abort-causing blames (abandon vote, prepare nack,
    wound). *)

val hot_keys : t -> int -> (string * key_acc) list
(** Top-n keys by total counter, hottest first (ties by key). *)

(** {2 Reports} *)

val to_json : t -> string
(** Single-line JSON document; byte-identical across same-seed runs.
    See EXPERIMENTS.md ("Reading a profile") for the field
    reference. *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable digest of the same data. *)
