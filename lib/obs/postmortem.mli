(** Post-mortem bundles: one JSON directory per incident.

    A bundle packages everything needed to diagnose a monitor
    violation, an Adya-audit failure, or a replica kill: the violated
    invariants with evidence ([violations.json]), a {!Monitor.state_view}
    of every replica ([snapshots.json]), the flight recorder's ring
    buffer ([flight.json]), the Perfetto-loadable trace slice for the
    implicated window ([trace.json]), the critical-path profile
    ([profile.json]), the metrics time series ([metrics.csv]) and a
    [manifest.json] tying them together.

    {!make} is pure — filename/contents pairs, byte-deterministic given
    the run's observers — and {!write} does the IO, so library code can
    build bundles while only binaries touch the filesystem. *)

type t = (string * string) list
(** Relative filename → file contents. *)

val make :
  reason:string ->
  detail:string ->
  label:string ->
  seed:int ->
  ?window_us:int * int ->
  obs:Bus.t ->
  unit ->
  t
(** [reason] is one of ["monitor-violation"], ["audit-failure"],
    ["replica-kill"].  [obs] is the run's bus: its monitor, flight
    recorder, sink and profiler fill the bundle.  When [window_us] is
    omitted the trace slice centres on the monitor's first incident
    (full trace if none). *)

val files : t -> string list

val write : dir:string -> t -> unit
(** Create [dir] if needed and write every file into it. *)
