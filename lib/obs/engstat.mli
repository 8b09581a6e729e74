(** Simulator self-performance counters for one run: engine events by
    kind and timer-heap operation counts.

    Where {!Profile} decomposes the {e simulated systems'} virtual
    time, this module counts the work the {e simulator itself} did.
    Every field is a pure function of the simulated schedule —
    byte-identical across hosts, runs and [--jobs] values.  The run
    ledger's deterministic section and the CSV row carry them.  Host
    time (wall clock, GC) is measured by perfbench alone. *)

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
  de_events : int;  (** events fired, total *)
  de_timers : int;
  de_deliveries : int;
  de_tickers : int;
  de_heap : heap;
}

type t = { es_det : det }

val zero : t

val make : timers:int -> deliveries:int -> tickers:int -> heap:heap -> t
(** One finished run's record: the engine's event counts by kind and
    its heap counters (see [Sim.Engine.heap_stats]; convert to {!heap}
    at the call site). *)
