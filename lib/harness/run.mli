(** Experiment runner: build a cluster of the chosen system on the
    simulated network, drive closed-loop clients through a workload, and
    measure goodput/latency/commit-rate/CPU exactly as §5 does.

    Core-count semantics follow the paper (§5 Setup): Morty and the
    MVTSO baseline run {e one} replica group whose replicas have
    [e_cores] worker cores; TAPIR and Spanner keep their single-threaded
    replication and instead get [e_cores] replica {e groups} (partitioned
    data), each replica having one core.

    One generic runner serves every system; a per-protocol stack adapter
    supplies only what differs (cluster layout, config, client routing,
    metrics row, kill guard and restart, recovery counters). *)

type system =
  | Morty
  | Mvtso
  | Tapir
  | Tapir_nodist
      (** TAPIR on a workload with no cross-group transactions — the
          best-case scaling reference of Fig. 8a *)
  | Spanner

val system_name : system -> string

val system_of_string : string -> system option

val all_systems : system list
(** The four systems of the paper's comparison (excludes the
    [Tapir_nodist] reference). *)

type workload =
  | Tpcc of Workload.Tpcc.conf
  | Retwis of Workload.Retwis.conf
  | Ycsb of Workload.Ycsb.conf
      (** parametric read/RMW microbenchmark (extension; see
          [Workload.Ycsb]) *)
  | Smallbank of Workload.Smallbank.conf
      (** banking benchmark with write-skew-shaped transactions
          (extension; see [Workload.Smallbank]) *)

type exp = {
  e_system : system;
  e_setup : Simnet.Latency.setup;
  e_workload : workload;
  e_clients : int;
  e_cores : int;
  e_warmup_us : int;
  e_measure_us : int;
  e_seed : int;
  e_label : string;
  e_backoff_base_us : int;
      (** randomized exponential backoff base for abort retries *)
  e_max_staleness_us : int;
      (** follower-read staleness bound: [begin_ro] transactions may be
          served by any replica whose watermark lags real time by at
          most this much.  [0] (the default) disables the follower-read
          path entirely — RO transactions run exactly as read-write
          ones and no new timers or RNG draws are introduced, keeping
          seeded histories identical to earlier revisions. *)
}

val default_exp : exp
(** Morty, REG, Retwis θ=0.9, 24 clients, 4 cores, 0.5 s warm-up, 2 s
    measurement. *)

type cluster_ops = {
  co_engine : Sim.Engine.t;
  co_n_replicas : int;  (** replicas across all groups, flattened *)
  co_crash : int -> unit;  (** crash replica [i mod n] (net-level) *)
  co_recover : int -> unit;
  co_kill : int -> unit;
      (** amnesia-crash replica [i mod n]: stop the incarnation, lose
          all in-memory state, crash its node.  Refused (no-op) when it
          would exceed [f] concurrently-amnesiac replicas in the
          victim's group, or when the victim is a Spanner leader (whose
          state the content-free Paxos emulation cannot recover). *)
  co_restart : int -> unit;
      (** bring up a {e fresh} incarnation on the dead replica's node
          and start peer catch-up (protocol-level for Morty/MVTSO,
          instantaneous snapshot install for TAPIR/Spanner).  No-op
          unless replica [i mod n] is currently killed. *)
  co_isolate : int -> unit;
      (** cut both directions between replica [i mod n] and every other
          node currently registered (replicas and clients) *)
  co_heal_all : unit -> unit;  (** remove all link cuts *)
  co_partition : int -> unit;
      (** named datacenter cut: isolate every node (replicas {e and}
          clients) of latency region [g mod n_regions] from the rest of
          the network.  Idempotent while active; resolved at fire time
          so late-registered clients are included. *)
  co_heal : int -> unit;
      (** heal the named cut of region [g mod n_regions], restoring
          exactly the links it severed; no-op when not active *)
  co_set_loss : float -> unit;  (** global message-loss probability *)
  co_set_extra_delay : int -> unit;  (** extra uniform delay cap, µs *)
}
(** Monomorphic fault-injection surface over the experiment's cluster,
    handed to the [?faults] callback after setup and before the run.
    The callback schedules its events on [co_engine]; replica indices
    wrap mod [co_n_replicas], so one schedule is valid for every
    system. *)

val run_exp :
  ?on_txn:(Adya.History.txn -> unit) ->
  ?faults:(cluster_ops -> unit) ->
  ?obs:Obs.Bus.t ->
  exp ->
  Stats.result
(** [on_txn] receives one {!Adya.History.txn} per finished transaction
    (all four systems), in finish order over the whole run including
    warm-up — the raw material for the serializability audit.  [faults]
    may schedule crash/partition/loss/delay events via the
    {!cluster_ops}.  [obs] (default {!Obs.Bus.null}) is the run's one
    observation stream: every client and replica emits its events into
    it once, and its enabled recorders derive their artifacts from them
    — span traces (plus per-replica metrics samples on a read-only
    virtual-time ticker), the critical-path profile of
    measurement-window commits, the online monitors (which also get the
    cluster's {!Obs.Monitor.state_view} source and kill incidents), the
    flight recorder's ring (which also taps engine dispatches and
    message traffic) and per-transaction causal lineage (with workload
    kind labels staged per attempt, and the run's
    {!Obs.Lineage.summary} in [Stats.r_lineage]).  No recorder draws
    randomness or alters scheduling, so attaching any never changes the
    simulated history. *)

val run_exp_audited :
  ?faults:(cluster_ops -> unit) ->
  ?obs:Obs.Bus.t ->
  ?mon:Obs.Monitor.t ->
  exp ->
  Stats.result * Adya.History.txn list
(** {!run_exp} plus the recorded history, in transaction-finish order.
    Feed the list to [Adya.History.of_list] / [Adya.Dsg.check] (or to
    [Explore.Audit.check], which also applies the sanity invariants).
    [mon] is short for [~obs:(Obs.Bus.create ~monitor:mon ())], for
    callers that attach monitors alone; it cannot be combined with
    [obs]. *)

val run_morty_with_config :
  ?obs:Obs.Bus.t ->
  exp ->
  Morty.Config.t ->
  Stats.result
(** Run the Morty/MVTSO cluster with an explicit configuration — the
    ablation benches use this to toggle eager visibility, the fast path,
    and the re-execution cap. *)

val find_peak :
  ?runner:((unit -> Stats.result) list -> Stats.result list) ->
  (int -> exp) ->
  client_counts:int list ->
  Stats.result
(** Run the experiment at each offered load and return the result with
    the highest goodput — the "maximum goodput" the paper reports in
    Figures 8 and 9.  [runner] (default: run each thunk in order on the
    calling domain) evaluates the per-load runs; the parallel bench
    passes a pool-backed runner that preserves list order, so the
    strict-greater/first-wins fold picks the same peak either way. *)

val run_failover :
  ?victim:int ->
  exp ->
  crash_at_us:int ->
  recover_at_us:int ->
  bucket_us:int ->
  (int * int) list
(** Availability timeline (extension): run [exp] on the system it
    names, crash replica [victim] (default: the last replica, flattened
    across groups) at [crash_at_us] and un-crash it at [recover_at_us]
    (a transient outage — state survives), and return committed-
    transaction counts per [bucket_us] time bucket, warm-up included.
    A thin wrapper over {!run_exp}: the fault is routed through the
    same {!cluster_ops} surface the explorer uses. *)
