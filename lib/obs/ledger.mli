(** Run ledger: the multi-seed bench artifact and its exact gate.

    One ledger holds, per (system, point), the metric samples of a
    whole seed set — every metric is a [float array] with one value per
    sample, in seed order.  Every metric (goodput, latency percentiles,
    abort/re-exec counters, engine event counters, lineage digests) is
    a pure function of the simulated schedule, byte-identical across
    hosts and [--jobs].  So the gate is exact: a committed ledger passes
    only when it equals the fresh rendering byte for byte, and any
    difference is a behaviour change.  Host time is not recorded here:
    perfbench measures it.

    The rendering is JSON with one line per fact: the raw config
    string, the seed set, then one line per (system, point, metric)
    sample array, so a mismatch localises to one line. *)

type entry = {
  en_system : string;
  en_point : string;  (** human label of the bench point *)
  en_det : (string * float array) list;
}

type t = { config : string; seeds : int list; entries : entry list }

val entry : system:string -> point:string -> (string * float) list list -> entry
(** One entry from per-seed metric rows (in seed order): every metric
    of the first row becomes a sample array across all rows. *)

val make : config:string -> seeds:int list -> entry list -> t
(** [config] is the raw canonical parameter string of the bench
    point. *)

val render : t -> string
(** The one rendering, newline-terminated.  Field order is fixed and
    non-integral values print at [%.17g], so equal values give equal
    bytes. *)

(** {1 The exact gate} *)

type mismatch = {
  line : int;  (** 1-based line of the committed text *)
  system : string;  (** [""] on a header line *)
  point : string;  (** [""] on a header line *)
  metric : string;
      (** the metric, or the header field ([config], [seeds]) *)
  seed : int option;
      (** the first differing seed, when both lines carry the same
          metric and it has one sample per seed *)
  committed : string;  (** the differing value, or the whole line *)
  fresh : string;
}

val first_mismatch : committed:string -> t -> mismatch option
(** [None] exactly when [committed] equals [render t].  Otherwise the
    first line that differs, ignoring a trailing comma (which moves
    when a line is added or removed at the end of a list); a metric
    line whose values differ names the first differing seed and both
    values. *)

val pp_mismatch : Format.formatter -> mismatch -> unit
