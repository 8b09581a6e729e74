(** One exploration case: a fully-named point in
    [system × workload × seed × schedule] plus run dimensions.

    Workloads are referenced by name from a fixed registry so that a
    case is printable as a paste-ready OCaml value — the shrinker's
    reproducers depend on this. *)

type t = {
  c_system : Harness.Run.system;
  c_workload : string;  (** a name from {!workloads} *)
  c_seed : int;
  c_clients : int;
  c_cores : int;
  c_warmup_us : int;
  c_measure_us : int;
  c_max_staleness_us : int;
      (** follower-read staleness bound forwarded to
          {!Harness.Run.exp.e_max_staleness_us}; [0] disables the
          follower-read path *)
  c_schedule : Schedule.t;
}

val workloads : (string * Harness.Run.workload) list
(** The named workload registry (small, bounded configurations meant
    for many short runs): ["ycsb-small"], ["ycsb-readheavy"],
    ["retwis-small"], ["smallbank-small"], ["tpcc-small"]. *)

val workload : string -> Harness.Run.workload
(** Raises [Invalid_argument] on an unknown name. *)

val default : t
(** Morty on ["ycsb-small"], seed 1, 8 clients, 2 cores, 50 ms warm-up,
    200 ms measurement, no faults. *)

val horizon_us : t -> int
(** Warm-up plus measurement window — the span fault schedules target. *)

val run :
  ?obs:Obs.Bus.t ->
  t ->
  (Harness.Stats.result, Audit.violation) result
(** Run the case's experiment with its fault schedule injected, audit
    the recorded history ([expect_progress] iff the schedule is empty),
    and return the measured result or the audit violation.  [obs]
    carries the run's recorders ({!Harness.Run.run_exp}); a firing
    monitor is reported as [Audit.Monitor_violation].  Recording is
    read-only, so the history is identical with or without them. *)

val label : t -> string
(** Short deterministic label, e.g. ["morty/ycsb-small seed=3 sched=[...]"]. *)

val to_ocaml : t -> string
(** The case as a paste-ready OCaml expression. *)
