(** Work-stealing pool over OCaml 5 domains for independent simulation
    runs.

    Each worker domain owns a private deque of jobs; submission deals
    jobs round-robin across the deques, a worker pops from its own
    deque first and steals from a sibling's when it runs dry.  Jobs are
    whole simulation runs (milliseconds to seconds each), so the
    coarse single-lock deque protection costs nothing measurable.

    No shared mutable state crosses domains except the deques and the
    {!Merge} result mailbox, both guarded by the pool lock: every job
    builds its own [Sim.Engine], [Sim.Rng], observers and stores inside
    the worker, and its result travels back as an immutable-after-send
    value tagged with its submission index.

    Determinism contract: {!map} returns results in submission order
    and fires [on_ready] in submission order, whatever order workers
    finish in — so a parallel sweep's output is byte-identical to the
    serial sweep's.  With [jobs <= 1] no domain is ever spawned and
    [map] degenerates to [List.map] on the calling domain: the serial
    ground truth the differential tests compare against.

    The pool keeps no clocks or utilization counters; perfbench
    measures host time. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs] worker domains when [jobs > 1]; with
    [jobs <= 1] the pool is inert and everything runs inline on the
    caller. *)

val default_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)] — leave one
    hardware thread for the merging main domain. *)

val jobs : t -> int
(** The configured parallelism (1 = inline serial). *)

val map : ?on_ready:(int -> 'b -> unit) -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f items] runs [f] on every item and returns the results in
    submission order.  [on_ready i y] fires on the calling domain, in
    strict index order, as soon as result [i] and all its predecessors
    exist — the streaming hook progress printers use.

    If any job raises, every job still runs to completion (results are
    per-run isolated, so speculative completions are harmless), then
    [map] re-raises the exception of the {e lowest-indexed} failed job
    — deterministic regardless of completion order.  [on_ready] is not
    called for failed indices.  The pool survives: subsequent [map]
    calls work normally. *)

val shutdown : t -> unit
(** Signal workers to drain and exit, then join their domains.
    Idempotent; a no-op for inline pools. *)
