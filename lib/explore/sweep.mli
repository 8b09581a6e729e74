(** The explorer loop: sweep [systems × workloads × seeds × schedules],
    audit every run, and shrink any failure to a minimal reproducer.

    Everything is derived from the seeds — no wall-clock, no global
    state — so a sweep's summary is bit-identical across invocations
    with the same arguments. *)

type config = {
  systems : Harness.Run.system list;
  workload_names : string list;  (** names from {!Case.workloads} *)
  seeds : int list;
  schedules_per_seed : int;
      (** generated fault schedules per (system, workload, seed); a
          fault-free run is always included in addition *)
  episodes : int;  (** fault episodes per generated schedule *)
  clients : int;
  cores : int;
  warmup_us : int;
  measure_us : int;
  shrink_budget : int;  (** max re-runs spent minimizing one failure *)
  kill_restart : bool;
      (** include amnesia-crash (kill/restart) episodes in generated
          schedules; see {!Schedule.generate} *)
  partitions : bool;
      (** include datacenter partition+heal episodes in generated
          schedules; see {!Schedule.generate} *)
  max_staleness_us : int;
      (** follower-read staleness bound for every case ([0] = follower
          reads off; see {!Case.t.c_max_staleness_us}) *)
  monitors : bool;
      (** attach a fresh {!Obs.Monitor} to every run (including shrink
          re-runs): any monitor firing counts as a failure
          ([Audit.Monitor_violation]) and shrinks like an audit
          failure.  Monitors are pure observers, so histories are
          unchanged. *)
}

val default_config : config
(** All four systems, ["ycsb-small"], seeds [1..5], 2 schedules per
    seed, 2 episodes each, 8 clients / 2 cores, 50 ms + 200 ms
    windows. *)

val smoke_config : config
(** [default_config] bounded for CI: seeds [1..2], 1 schedule per
    seed. *)

type failure = {
  f_original : Case.t;
  f_shrunk : Shrink.outcome;
  f_trace : string;
      (** Chrome trace_event JSON of the shrunk case's failing run
          (deterministic re-execution with a tracing sink) — load in
          Perfetto alongside the reproducer *)
  f_profile : string;
      (** critical-path profile JSON ({!Obs.Profile.to_json}) of the
          same deterministic re-execution: where the failing run's time
          and cycles went *)
  f_lineage : string;
      (** causal lineage JSONL ({!Obs.Lineage.to_jsonl}) of the same
          re-execution — feed to [morty_inspect] to ask {e why} a
          transaction aborted or re-executed in the failing history *)
  f_bundle : Obs.Postmortem.t;
      (** post-mortem bundle of the same re-execution (monitors and the
          flight recorder are always attached to it): violations,
          per-replica snapshots, ring contents, trace slice, profile
          and metrics — write next to the reproducer with
          {!Obs.Postmortem.write} *)
}

type summary = {
  s_runs : int;
  s_passed : int;
  s_committed : int;  (** total committed transactions, all runs *)
  s_aborted : int;
  s_failures : failure list;
}

val case_of : config -> Harness.Run.system -> string -> seed:int -> schedule:Schedule.t -> Case.t

val pool_batch : Orchestrate.Pool.t -> config -> Shrink.batch
(** The parallel sweep's shrink-step evaluator: fans a step's candidate
    list across the pool, resolves first-failure-wins by candidate
    index and charges oracle runs by the serial rule — see
    {!Shrink.batch}.  Exposed so the differential tests can drive it
    directly. *)

val schedule_for :
  config -> seed:int -> index:int -> Schedule.t
(** The [index]-th generated schedule for [seed] (deterministic;
    [index] starts at 1 — index 0 is the fault-free schedule
    {!Schedule.empty}). *)

val run :
  ?progress:
    (Case.t ->
    Obs.Profile.t ->
    (Harness.Stats.result, Audit.violation) result ->
    unit) ->
  ?jobs:int ->
  config ->
  summary
(** Run the sweep.  Every run carries a critical-path profiler;
    [progress] is called once per audited run (before any shrinking), in
    deterministic order, with the run's profile.

    [jobs] (default 1) sets the orchestrator parallelism.  With
    [jobs <= 1] the original serial loop runs on the calling domain —
    the ground truth.  With [jobs > 1] the independent runs fan across
    an {!Orchestrate.Pool} of worker domains and the merged summary,
    [progress] call sequence and shrunk reproducers are byte-identical
    to the serial sweep's: results merge in submission order, shrinking
    stays serial per failure (candidates within one event-dropping step
    evaluate in parallel with first-failure-wins resolved by candidate
    index), and failure artifacts are re-derived on the calling
    domain. *)

val pp_summary : Format.formatter -> summary -> unit
