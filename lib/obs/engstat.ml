(* Simulator self-performance counters: how much work the *simulator*
   did, as opposed to the simulated systems' virtual time (that is
   [Profile]'s job).  Every counter is a pure function of the simulated
   schedule; host time is perfbench's job. *)

type heap = {
  hp_pushes : int;
  hp_pops : int;
  hp_cancels : int;
  hp_ghost_drains : int;
  hp_max_live : int;
  hp_max_raw : int;
}

let zero_heap =
  {
    hp_pushes = 0;
    hp_pops = 0;
    hp_cancels = 0;
    hp_ghost_drains = 0;
    hp_max_live = 0;
    hp_max_raw = 0;
  }

type det = {
  de_events : int;
  de_timers : int;
  de_deliveries : int;
  de_tickers : int;
  de_heap : heap;
}

type t = { es_det : det }

let make ~timers ~deliveries ~tickers ~heap =
  {
    es_det =
      {
        de_events = timers + deliveries + tickers;
        de_timers = timers;
        de_deliveries = deliveries;
        de_tickers = tickers;
        de_heap = heap;
      };
  }

let zero = make ~timers:0 ~deliveries:0 ~tickers:0 ~heap:zero_heap
