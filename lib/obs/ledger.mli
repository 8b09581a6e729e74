(** Run ledger: the schema-versioned multi-seed bench artifact and its
    variance-aware comparison.

    One ledger holds, per (system, point), the metric samples of a
    whole seed set — every metric is a [float array] with one value per
    seed, in seed order.  Metrics live in two sections with different
    determinism contracts:

    - {b deterministic} ([en_det]): goodput, latency percentiles,
      abort/re-exec counters, engine event counters, lineage digests —
      pure functions of the simulated schedule, byte-identical across
      hosts and [--jobs].  Gated by {!compare_ledgers} with bootstrap
      confidence intervals and a Mann–Whitney U test, never by hand
      tolerances.
    - {b host} ([en_host]): events/sec, wall seconds, GC counters —
      machine-dependent, so informational only: reported, never gated.

    The manifest pins schema version, a config hash, the seed set and a
    best-effort [git describe], so a check can refuse to compare
    incomparable artifacts instead of silently passing. *)

val schema_version : int

type entry = {
  en_system : string;
  en_point : string;  (** human label of the bench point *)
  en_det : (string * float array) list;
  en_host : (string * float array) list;
}

type manifest = {
  m_schema : int;
  m_config : string;  (** {!hash_config} of the bench-point parameters *)
  m_seeds : int list;
  m_describe : string;  (** informational; excluded from {!det_json} *)
}

type t = { manifest : manifest; entries : entry list }

val hash_config : string -> string
(** FNV-1a 64 of a canonical parameter string, rendered as hex. *)

val make : config:string -> seeds:int list -> ?describe:string -> entry list -> t
(** [config] is hashed; pass the raw canonical parameter string. *)

(** {1 Serialization} *)

val to_json : t -> string
(** Multi-line JSON, one entry per line, newline-terminated.  Field
    order is fixed.  Contains the host section — do not byte-diff this;
    diff {!det_json}. *)

val det_json : t -> string
(** Canonical deterministic projection: manifest minus [describe], and
    every entry's [det] section only.  Byte-identical across hosts and
    [--jobs] for the same code, config and seed set. *)

type error =
  | Missing_file of string
  | Empty  (** no bytes, or no entries *)
  | Parse of string
  | Schema of int  (** found schema version incompatible with ours *)

val error_to_string : error -> string

val error_exit_code : error -> int
(** The obs CLIs' shared artifact-error exit codes: missing file 3,
    empty artifact 4, schema mismatch 5, parse failure 4.  (0 success,
    1 regression/gate failure, 2 usage.) *)

val parse : string -> (t, error) result

val load : string -> (t, error) result
(** [parse] of the file's contents; [Missing_file] when unreadable. *)

(** {1 Comparison} *)

type verdict =
  | Pass  (** no statistically significant shift *)
  | Drift
      (** significant but unconfirmed (CIs overlap or shift below the
          regression floor) or metric missing from the current run —
          reported, never fatal *)
  | Regress
      (** significant, confidence intervals disjoint, relative shift
          beyond the floor — fails the gate *)
  | Info  (** never gated (host metrics, new metrics) *)

val verdict_to_string : verdict -> string

type metric_verdict = {
  v_system : string;
  v_metric : string;
  v_host : bool;
  v_verdict : verdict;
  v_base_mean : float;
  v_cur_mean : float;
  v_base_ci : float * float;
  v_cur_ci : float * float;
  v_p : float;  (** Mann–Whitney two-sided p bound; 1. when untested *)
  v_effect : float;  (** rank-biserial, baseline vs current *)
  v_rel_delta : float;  (** (cur - base) / max(|base|, |cur|, eps) *)
  v_note : string;  (** short attribution, e.g. "missing in current" *)
}

type comparison = {
  c_verdicts : metric_verdict list;
  c_config_match : bool;
  c_seeds_match : bool;  (** informational: disjoint seed sets compare fine *)
  c_regressions : int;
  c_drifts : int;
  c_alpha_effective : float;
      (** per-metric significance level after Bonferroni correction
          over all gated metrics in the comparison *)
}

val compare_ledgers :
  ?alpha:float ->
  ?regress_floor:float ->
  ?ci_level:float ->
  ?resamples:int ->
  baseline:t ->
  current:t ->
  unit ->
  comparison
(** Defaults: [alpha] 0.05 (Bonferroni-divided across gated metrics),
    [regress_floor] 0.03 relative, [ci_level] 0.95, [resamples] 1000.
    Only the deterministic section is gated: every host metric is
    {!Info}, since host timings swing with machine load (perfbench
    measures host speed instead).  Identical sample arrays
    short-circuit to {!Pass}.  Significance is either the corrected U-test p {e or} complete separation (every
    current sample on one side of every baseline sample, rank-biserial
    |r| = 1) with at least 4 seeds a side — the strongest signal a
    rank test of this size can emit, which would otherwise be
    unreachable under Bonferroni across ~100 metrics.  Entries are
    matched by (system, point); metric bootstrap seeds derive from
    {!Bstats.seed_of_name}["system.metric"], so results are
    reproducible anywhere. *)

val pp_verdict_table : Format.formatter -> comparison -> unit
(** Fixed-width PASS/DRIFT/REGRESS attribution table plus a one-line
    summary. *)

val explain_metric :
  comparison -> system:string -> metric:string -> string option
(** Multi-line account of why one gate fired (or didn't): verdict,
    baseline CI, observed CI, U-test p bound, effect size, relative
    shift vs the floor. *)

(** {1 Raw JSON access}

    The mini JSON reader behind {!parse}, exposed so [morty_report
    trajectory] can also walk the legacy single-seed [BENCH_*.json]
    baselines without a second parser. *)

module J : sig
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  val parse : string -> (v, string) result

  val member : string -> v -> v option
end
