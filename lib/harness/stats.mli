(** Measurement accumulators and experiment results.

    Mirrors the paper's methodology (§5, Measurement): goodput is
    committed transactions per second over the measurement window
    (warm-up and cool-down trimmed); latency is begin-to-commit
    {e including} retries after aborts; commit rate is commits over
    attempts.

    Latency is accumulated in a streaming log2 HDR histogram
    ({!Obs.Hist}), so recording is O(1) and percentile queries never
    sort; aborts are counted per {!Obs.Abort_reason} entry; per-phase
    virtual time (execute / prepare / finalize / backoff-idle) is
    accumulated per committed transaction. *)

type t

type phase =
  | P_execute  (** application logic + reads (incl. re-executions) *)
  | P_prepare  (** Prepare / vote rounds (2PC prepare for baselines) *)
  | P_finalize  (** Finalize rounds; TrueTime commit-wait for Spanner *)
  | P_backoff  (** retry backoff idle time in the closed-loop driver *)

val create : unit -> t

val record_commit : t -> latency_us:int -> unit

val record_abort : t -> reason:Obs.Abort_reason.t -> unit

val record_phase : t -> phase -> dur_us:int -> unit
(** Record one transaction's time spent in [phase]. *)

val committed : t -> int

val aborted : t -> int
(** Sum over all abort reasons. *)

val aborts_by_reason : t -> (Obs.Abort_reason.t * int) list
(** One entry per taxonomy variant, in {!Obs.Abort_reason.all} order. *)

val commit_rate : t -> float
(** commits / (commits + aborted attempts); 1.0 when idle. *)

val mean_latency_us : t -> float

val percentile_latency_us : t -> float -> float
(** e.g. [percentile_latency_us t 0.99].  Returns 0. for an empty
    accumulator and the exact sample when only one commit was
    recorded. *)

type recovery = {
  rc_kills : int;  (** amnesia-crash kills injected *)
  rc_restarts : int;  (** fresh incarnations brought up *)
  rc_transfer_msgs : int;  (** state-transfer replies / snapshots sent *)
  rc_transfer_bytes : int;  (** estimated state-transfer payload bytes *)
  rc_catchups : int;
      (** catch-up rounds completed (protocol-level for Morty/MVTSO;
          instantaneous snapshot installs for the baselines) *)
  rc_catchup_wait_us : int;  (** total restart-to-caught-up time *)
  rc_ttr_write_us : int;
      (** time-to-recover, writes: virtual µs from the (last) heal to the
          first committed read-write transaction after it; 0 when no heal
          happened or no write committed afterwards *)
  rc_ttr_wm_us : int;
      (** time-to-recover, watermarks: virtual µs from the (last) heal to
          the first RO commit served within the freshness threshold —
          i.e. watermark re-convergence as seen by clients *)
}
(** Amnesia-crash and partition fault accounting for one run. *)

val no_recovery : recovery

type avail = {
  av_ro_committed : int;  (** RO transactions committed in the window *)
  av_ro_aborted : int;  (** RO transactions aborted in the window *)
  av_read_avail : float;
      (** RO commits / RO attempts over the measurement window; 1.0 when
          no RO transaction ran *)
  av_write_avail : float;
      (** read-write commits / attempts over the window; 1.0 when idle *)
  av_stale_p99_ms : float;
      (** p99 staleness of served RO snapshots (commit-time watermark
          lag), milliseconds *)
}
(** Availability accounting for one run (all zeros/1.0 when the
    follower-read path is off, i.e. [max_staleness_us = 0]). *)

val no_avail : avail

type events = {
  ev_timers : int;
  ev_deliveries : int;
  ev_tickers : int;
}
(** Simulation events fired by kind (see {!Sim.Engine.events_by_kind}). *)

val no_events : events

val no_lineage : Obs.Lineage.summary
(** The all-zero lineage digest (hot key [-]) reported when the runner
    ran without a lineage recorder. *)

type result = {
  r_label : string;
  r_committed : int;
  r_aborted : int;  (** sum of [r_aborts_by] (CSV compatibility) *)
  r_aborts_by : (Obs.Abort_reason.t * int) list;
      (** per-taxonomy counters, one entry per variant in fixed order *)
  r_goodput : float;  (** committed transactions per second *)
  r_mean_latency_ms : float;
  r_p50_latency_ms : float;
  r_p99_latency_ms : float;
  r_commit_rate : float;
  r_cpu_utilization : float;  (** mean across replicas over the window *)
  r_reexecs_per_txn : float;  (** Morty only; 0 elsewhere *)
  r_msgs_per_txn : float;
      (** network messages delivered per committed transaction — the
          protocol-cost metric of the message-complexity ablation *)
  r_exec_ms : float;  (** mean per committed txn, by phase *)
  r_prepare_ms : float;
  r_finalize_ms : float;
  r_backoff_ms : float;
  r_events : events;
      (** engine events fired over the whole run, by kind *)
  r_recovery : recovery;
      (** amnesia-crash accounting; {!no_recovery} when no faults ran *)
  r_avail : avail;
      (** availability accounting; {!no_avail} when follower reads off *)
  r_engstat : Obs.Engstat.t;
      (** engine event and timer-heap counters for this run;
          {!Obs.Engstat.zero} when the runner did not collect them *)
  r_lineage : Obs.Lineage.summary;
      (** lineage digest (cascade depth, salvaged/lost work, hottest
          key); {!no_lineage} when no recorder was attached *)
}

val to_result :
  t ->
  label:string ->
  duration_us:int ->
  cpu_utilization:float ->
  reexecs_per_txn:float ->
  ?msgs_per_txn:float ->
  ?events:events ->
  ?recovery:recovery ->
  ?avail:avail ->
  ?engstat:Obs.Engstat.t ->
  ?lineage_summary:Obs.Lineage.summary ->
  unit ->
  result

val abort_count : result -> Obs.Abort_reason.t -> int
(** Counter for one taxonomy entry (0 if absent). *)

val ledger_metrics : result -> (string * float) list
(** The run-ledger projection of a result: one seed's metrics, in the
    fixed order {!Obs.Ledger} renders them, one line each — goodput,
    latency percentiles, commit/abort/re-exec counters, engine event +
    heap counters, lineage digest.  A pure function of the simulated
    schedule: byte-identical across hosts and [--jobs], which the
    exact ledger gate relies on.  Lineage fields are all zero when the
    run had no recorder attached. *)

val pp_result_header : Format.formatter -> unit -> unit

val pp_result : Format.formatter -> result -> unit
(** Appends a [aborts{reason=n,...}] suffix when any abort occurred. *)

val pp_recovery : Format.formatter -> result -> unit
(** One-line amnesia-crash counters (print when kills/restarts > 0);
    appends time-to-recover figures when a heal was observed. *)

val pp_avail : Format.formatter -> result -> unit
(** One-line availability counters (print when follower reads are on). *)

val csv_header : string
(** The first 17 columns (label through catchup_wait_us) are the stable
    pre-observability schema — pinned by a golden test; new columns
    only ever append.  The [eng_heap_*] columns are the deterministic
    timer-heap counters from {!Obs.Engstat}; the trailing [lin_*]
    columns are the lineage digest (all-zero without a recorder).  The
    authoritative column-by-column table lives in EXPERIMENTS.md. *)

val to_csv_row : result -> string
