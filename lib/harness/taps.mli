(** Read-only observer taps on one experiment run: the metrics ticker,
    the flight recorder's taps, and the engine counters a finished run
    reports.  None of them draws randomness or changes scheduling, so a
    seeded run stays byte-identical with any of them attached. *)

val metrics_interval_us : int
(** Virtual-time interval between two metrics samples. *)

val install_metrics :
  engine:Sim.Engine.t ->
  sink:Obs.Sink.t ->
  horizon:int ->
  sample:(now:int -> unit) ->
  unit ->
  unit
(** Schedule a ticker calling [sample] every {!metrics_interval_us} up
    to [horizon]; nothing is scheduled on a disabled sink.  Returns the
    [finish] closure to call after [Engine.run_until]: it closes the
    series with one sample pinned at the horizon, unless a tick already
    landed there. *)

val busy_frac : int array -> slot:int -> cores:int -> busy_us:int -> float
(** Busy fraction of [cores] over one sampling interval, from a monotone
    busy-µs counter whose previous reading is kept in [prev.(slot)]. *)

val attach_flight :
  engine:Sim.Engine.t ->
  net:'msg Simnet.Net.t ->
  flight:Obs.Flight.t ->
  label:('msg -> string) ->
  unit
(** Tap engine dispatches and message sends and deliveries (named by
    [label]) into [flight]; no-op when it is disabled.  The trace
    sink's entries reach it through {!Obs.Bus}. *)

val events_of_engine : Sim.Engine.t -> Stats.events

val engstat_of_engine : Sim.Engine.t -> Obs.Engstat.t
(** The finished run's engine event and timer-heap counters. *)
