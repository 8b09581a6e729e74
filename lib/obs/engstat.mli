(** Simulator self-performance record: engine throughput, heap-operation
    counters, GC pressure and domain utilization for one run or an
    aggregated sweep.

    Where {!Profile} decomposes the {e simulated systems'} virtual
    time, this module measures the {e simulator itself} — the raw
    events/sec the ROADMAP's open-loop traffic engine is gated on.

    The record has two sections with different determinism contracts:

    - {b deterministic} ({!det}): event counts by kind and timer-heap
      operation counters.  A pure function of the simulated schedule —
      byte-identical across hosts, runs and [--jobs] values.  The
      [@engine-smoke] alias diffs this section and the run ledger's
      deterministic section carries it.
    - {b host} ({!host}): wall nanoseconds (via {!Mclock}), GC deltas
      from [Gc.quick_stat], and per-domain pool utilization.  Machine-
      and load-dependent; tolerance-checked only, never diffed. *)

type heap = {
  hp_pushes : int;  (** events pushed into the timer heap *)
  hp_pops : int;  (** entries popped (live + ghost) *)
  hp_cancels : int;  (** live events cancelled *)
  hp_ghost_drains : int;
      (** cancelled entries that reached the top and were discarded *)
  hp_max_live : int;  (** peak count of live (uncancelled) events *)
  hp_max_raw : int;  (** peak heap length, ghosts included *)
}

val zero_heap : heap

type det = {
  de_runs : int;  (** simulation runs aggregated into this record *)
  de_events : int;  (** events fired, total *)
  de_timers : int;
  de_deliveries : int;
  de_tickers : int;
  de_heap : heap;
}

type gc = {
  gc_minor_words : float;  (** words allocated in the minor heap *)
  gc_major_words : float;  (** words allocated in/promoted to the major heap *)
  gc_promoted_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
  gc_top_heap_words : int;
      (** peak major-heap size (high-water mark, not a delta) *)
}

type domain_load = {
  dl_domain : int;  (** worker index within the pool *)
  dl_tasks : int;  (** jobs executed *)
  dl_steals : int;  (** jobs taken from a sibling's deque *)
  dl_busy_ns : int;  (** wall ns spent executing jobs *)
  dl_idle_ns : int;  (** wall ns spent waiting for work *)
}

type host = {
  ho_wall_ns : int;
      (** summed per-run wall ns (serial: total wall; parallel sweeps:
          aggregate CPU-seconds-like figure) *)
  ho_gc : gc;
  ho_domains : domain_load list;  (** empty for serial runs *)
  ho_merge_high_water : int;
      (** peak reorder-buffer occupancy across the pool's [map] calls *)
}

type t = { es_label : string; es_det : det; es_host : host }

val zero : label:string -> t

(** {1 Capture} *)

type probe
(** Wall-clock + GC snapshot taken before a run. *)

val start : unit -> probe

val finish :
  probe ->
  label:string ->
  timers:int ->
  deliveries:int ->
  tickers:int ->
  heap:heap ->
  t
(** Close the probe over one finished run: wall/GC deltas since
    {!start}, the engine's event counts by kind and its heap counters
    (see [Sim.Engine.heap_stats]; convert to {!heap} at the call
    site). *)

(** {1 Aggregation} *)

val add : t -> t -> t
(** Counters and deltas sum; high-water marks ([hp_max_*],
    [gc_top_heap_words], [ho_merge_high_water]) take the max; domain
    lists concatenate.  The label of the first non-empty operand
    wins. *)

val sum : label:string -> t list -> t

val with_domains : t -> domains:domain_load list -> merge_high_water:int -> t
(** Attach pool utilization to a sweep-level record. *)

val relabel : t -> string -> t

val strip_host : t -> t
(** Zero the host section, keeping label and deterministic section.
    Use before structurally comparing records (or values containing
    them) across runs: everything except the host section is
    deterministic for a given seed. *)

(** {1 Derived figures} *)

val events_per_s : t -> float
(** [de_events / wall] — the ROADMAP's engine-throughput gate metric. *)

val busy_fraction : t -> float
(** Aggregate busy / (busy + idle) across domains; 0. when serial. *)

(** {1 Rendering} *)

val det_line : t -> string
(** One-line deterministic summary ([engine: ...]).  Safe to print on
    stdout: byte-identical across hosts and [--jobs]. *)

val host_line : t -> string
(** One-line host summary ([engine-host: ...]).  Wall-clock derived —
    stderr only. *)

val to_json : t -> string
(** Single-line JSON document, newline-terminated:
    [{"label":...,"deterministic":{...},"host":{...}}].  Field order is
    fixed; the [deterministic] object is byte-identical across hosts
    and [--jobs]. *)
