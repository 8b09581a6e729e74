module Engine = Sim.Engine
module Latency = Simnet.Latency
module Outcome = Cc_types.Outcome
module Record = Cc_types.Txn_record

type system = Morty | Mvtso | Tapir | Tapir_nodist | Spanner

let system_name = function
  | Morty -> "morty"
  | Mvtso -> "mvtso"
  | Tapir -> "tapir"
  | Tapir_nodist -> "tapir-nodist"
  | Spanner -> "spanner"

let system_of_string s =
  match String.lowercase_ascii s with
  | "morty" -> Some Morty
  | "mvtso" -> Some Mvtso
  | "tapir" -> Some Tapir
  | "spanner" -> Some Spanner
  | _ -> None

let all_systems = [ Morty; Mvtso; Tapir; Spanner ]


type workload =
  | Tpcc of Workload.Tpcc.conf
  | Retwis of Workload.Retwis.conf
  | Ycsb of Workload.Ycsb.conf
  | Smallbank of Workload.Smallbank.conf

type exp = {
  e_system : system;
  e_setup : Latency.setup;
  e_workload : workload;
  e_clients : int;
  e_cores : int;
  e_warmup_us : int;
  e_measure_us : int;
  e_seed : int;
  e_label : string;
  e_backoff_base_us : int;
  e_max_staleness_us : int;
}

let default_exp =
  {
    e_system = Morty;
    e_setup = Latency.Reg;
    e_workload = Retwis Workload.Retwis.default_conf;
    e_clients = 24;
    e_cores = 4;
    e_warmup_us = 500_000;
    e_measure_us = 2_000_000;
    e_seed = 1;
    e_label = "default";
    e_backoff_base_us = 100_000;
    e_max_staleness_us = 0;
  }

let backoff_cap_us = 2_500_000 (* the paper's 2.5 s cap *)

(* --- Fault-injection surface (deterministic exploration harness) ------- *)

type cluster_ops = {
  co_engine : Engine.t;
  co_n_replicas : int;
  co_crash : int -> unit;
  co_recover : int -> unit;
  co_kill : int -> unit;
  co_restart : int -> unit;
  co_isolate : int -> unit;
  co_heal_all : unit -> unit;
  co_partition : int -> unit;
  co_heal : int -> unit;
  co_set_loss : float -> unit;
  co_set_extra_delay : int -> unit;
}

(* Replica indices are taken mod the cluster size so that schedules
   generated without knowledge of a system's replica count stay valid
   across all four systems; likewise partition-group indices are taken
   mod the number of latency regions, so one schedule names the same
   datacenter on every deployment. *)
let make_cluster_ops engine net replica_nodes ~regions ~on_heal ~kill ~restart =
  let n = Array.length replica_nodes in
  let rnode i = replica_nodes.(((i mod n) + n) mod n) in
  let n_regions = max 1 (Array.length regions) in
  let gidx g = ((g mod n_regions) + n_regions) mod n_regions in
  (* Datacenter granularity: the group is every node — replicas and
     clients alike — placed in the region.  Resolved at fire time so
     clients registered after the ops were built are included. *)
  let region_group g =
    let r = regions.(gidx g) in
    List.filter
      (fun nd -> Simnet.Net.region_of net nd = r)
      (List.init (Simnet.Net.node_count net) (fun x -> x))
  in
  let gname g = "region-" ^ string_of_int (gidx g) in
  {
    co_engine = engine;
    co_n_replicas = n;
    co_crash = (fun i -> Simnet.Net.crash net (rnode i));
    co_recover = (fun i -> Simnet.Net.recover net (rnode i));
    co_kill = kill;
    co_restart = restart;
    co_isolate =
      (fun i ->
        let v = rnode i in
        let others =
          List.filter
            (fun nd -> nd <> v)
            (List.init (Simnet.Net.node_count net) (fun x -> x))
        in
        Simnet.Net.partition net [ v ] others);
    co_heal_all =
      (fun () ->
        Simnet.Net.heal_all net;
        on_heal ());
    co_partition =
      (fun g ->
        Simnet.Net.cut_group net ~name:(gname g) ~group:(region_group g) ());
    co_heal =
      (fun g ->
        Simnet.Net.heal_group net ~name:(gname g);
        on_heal ());
    co_set_loss = (fun p -> Simnet.Net.set_loss_rate net p);
    co_set_extra_delay = (fun d -> Simnet.Net.set_extra_delay net ~max_us:d);
  }

(* --- Closed-loop clients ---------------------------------------------------

   [pick rng] freshly parameterises one transaction and returns its
   runner; retries rerun the same kind with fresh parameters, and
   latency is measured from the first attempt (§5, Measurement).

   [comps] reads the client's per-attempt latency-component cells
   ({!Obs.Profile}); the loop accumulates them across attempts, adds
   each backoff wait to the (retry, backoff) cell, and records the
   finished transaction on [prof].  Attempts and backoffs tile the
   interval from first begin to commit exactly, so the recorded cells
   always sum to the recorded latency. *)
let closed_loop ~engine ~rng ~client ~pick ~stats ~warm_start ~warm_end ~prof
    ~comps ~backoff_base_us =
  let profiling = Obs.Profile.enabled prof in
  let acc = Array.make Obs.Profile.n_cells 0 in
  let backoff_cell = Obs.Profile.cell Obs.Profile.P_retry Obs.Profile.C_backoff in
  let rec next () =
    if Engine.now engine < warm_end then begin
      if profiling then Array.fill acc 0 (Array.length acc) 0;
      let run = pick rng in
      attempt run (Engine.now engine) 0
    end
  and attempt run txn_start n =
    run client rng (fun outcome ->
        let now = Engine.now engine in
        if profiling then Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) (comps ());
        let in_window = now >= warm_start && now < warm_end in
        match outcome with
        | Outcome.Committed ->
          if in_window then begin
            Stats.record_commit stats ~latency_us:(now - txn_start);
            if profiling then
              Obs.Profile.record_txn prof ~latency_us:(now - txn_start) ~comps:acc
          end;
          next ()
        | Outcome.Aborted reason ->
          if in_window then Stats.record_abort stats ~reason;
          if now < warm_end then begin
            let wait =
              Sim.Backoff.full_jitter rng ~base_us:backoff_base_us
                ~cap_us:backoff_cap_us ~attempt:n
            in
            if profiling then acc.(backoff_cell) <- acc.(backoff_cell) + wait;
            if in_window then Stats.record_phase stats Stats.P_backoff ~dur_us:wait;
            ignore
              (Engine.schedule engine ~after:wait (fun () ->
                   attempt run txn_start (n + 1)))
          end)
  in
  next ()

let client_region regions i = regions.(i mod Array.length regions)

(* Straggler timeouts scale with the deployment's worst round trip: a
   400 ms timeout suits GLO but would make REG crawl whenever a replica
   is down (every slow-path commit would sit out the full timeout). *)
let timeout_for setup =
  let regions = Latency.regions setup in
  let max_rtt =
    Array.fold_left
      (fun acc a ->
        Array.fold_left (fun acc b -> max acc (Latency.rtt_us setup a b)) acc regions)
      0 regions
  in
  (3 * max_rtt) + 20_000

let tpcc_home conf i = (i mod conf.Workload.Tpcc.n_warehouses) + 1

(* Every system's client hands a {!Cc_types.Txn_record.t} to its
   [on_finish] hook; this maps it onto the common [Adya.History.txn]
   shape so any experiment can be audited with [Adya.Dsg.check]. *)
let txn_of_record (r : Record.t) =
  {
    Adya.History.ver = r.h_ver;
    reads = r.h_reads;
    writes = r.h_writes;
    committed = r.h_committed;
    start_us = r.h_start_us;
    commit_us = r.h_end_us;
  }

let count p a = Array.fold_left (fun c x -> if p x then c + 1 else c) 0 a

(* --- Protocol stacks -------------------------------------------------------

   A [Stack] holds only what differs between the protocols: cluster
   layout and placement, the config derived from the experiment, client
   creation and routing, the per-replica metrics row, the kill guard and
   restart, and the recovery and re-execution counters.  [Make] holds
   the rest of the §5 method, shared by every stack. *)

(* Run-wide handles a stack builds replicas and clients from.  [rng] is
   the run RNG: a stack splits it exactly where its own seeded streams
   begin, so the split order is part of each stack's behaviour. *)
type 'msg env = {
  engine : Engine.t;
  net : 'msg Simnet.Net.t;
  rng : Sim.Rng.t;
  cores : int;  (* worker cores per replica *)
  obs : Obs.Sink.t;
  prof : Obs.Profile.t;
  mon : Obs.Monitor.t;
  lineage : Obs.Lineage.t;
}

module type Stack = sig
  module Client : sig
    include Cc_types.Kv_api.S

    val last_comps : t -> int array
  end

  module Replica : sig
    type t

    val node : t -> Simnet.Net.node
    val set_peers : t -> Simnet.Net.node array -> unit
    val load : t -> (string * string) list -> unit
    val cpu : t -> Simnet.Cpu.t
    val store_size : t -> int
    val state_view : t -> Obs.Monitor.state_view
    val stop : t -> unit
    val is_stopped : t -> bool
  end

  type msg
  type cfg

  val label : msg -> string  (* message kind, for the flight recorder *)

  (* Config *)
  val config : exp -> cfg
  val shape : cfg -> int * int  (* replica groups, replicas per group *)
  val cores : exp -> int

  (* Cluster: replica [k] of group [g], placed in one of [regions] *)
  val create :
    msg env -> cfg -> regions:Latency.region array -> g:int -> k:int -> Replica.t
  val create_at :
    msg env -> cfg -> node:Simnet.Net.node -> g:int -> k:int -> Replica.t

  (* Clients: [groups] holds every group's replica nodes in index order *)
  val client :
    msg env -> cfg -> region:Latency.region -> groups:Simnet.Net.node array array ->
    partition:(string -> int) -> on_finish:(Record.t -> unit) -> Client.t

  (* Metrics *)
  val slot_name : g:int -> k:int -> string
  val records : Replica.t -> int
  val wmark_lag : Replica.t -> now:int -> int

  (* Faults: the kill guard over the victim's group, and how a fresh
     incarnation rejoins it, returning the state-transfer messages and
     bytes the harness accounts for *)
  val may_kill : cfg -> group:Replica.t array -> k:int -> bool
  val rejoin : Replica.t -> group:Replica.t array -> int * int

  (* Results *)
  val recovery : Replica.t list -> Stats.recovery -> Stats.recovery
  val reexecs_per_txn : Client.t list -> float
end

(* Morty and MVTSO: one group of 2f+1 replicas with [e_cores] cores
   each, replica [k] in region [k mod R].  MVTSO is Morty with
   re-execution off. *)
module Morty_stack = struct
  module Client = Morty.Client
  module Replica = Morty.Replica

  type msg = Morty.Msg.t
  type cfg = Morty.Config.t

  let label = Morty.Msg.label

  let config e =
    let base =
      { Morty.Config.default with reexecution = e.e_system <> Mvtso;
        prepare_timeout_us = timeout_for e.e_setup }
    in
    if e.e_max_staleness_us > 0 then
      (* Follower reads pin snapshots at the truncation watermark, so
         the watermark protocol must actually run. *)
      { base with
        max_staleness_us = e.e_max_staleness_us;
        truncation_interval_us =
          (if base.truncation_interval_us = 0 then 25_000
           else base.truncation_interval_us) }
    else base

  let shape cfg = (1, Morty.Config.n_replicas cfg)
  let cores e = e.e_cores

  let create { engine; net; rng; cores; prof; mon; lineage; _ } cfg ~regions ~g:_
      ~k =
    Replica.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng) ~index:k
      ~region:regions.(k mod Array.length regions) ~cores ~prof ~mon ~lineage ()

  (* A fresh incarnation: empty erecord, store and decision log. *)
  let create_at { engine; net; rng; cores; prof; mon; lineage; _ } cfg ~node ~g:_
      ~k =
    Replica.create_at ~node ~cfg ~engine ~net ~rng:(Sim.Rng.split rng) ~index:k
      ~cores ~prof ~mon ~lineage ()

  let client { engine; net; rng; obs; prof; mon; lineage; _ } cfg ~region ~groups
      ~partition:_ ~on_finish =
    Client.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng) ~region
      ~replicas:groups.(0) ~obs ~prof ~mon ~lineage ~on_finish ()

  let slot_name ~g:_ ~k = Printf.sprintf "r%d" k
  let records = Replica.erecord_size

  let wmark_lag r ~now =
    match Replica.watermark r with
    | Some w -> max 0 (now - w.Cc_types.Version.ts)
    | None -> 0

  (* At most [f] replicas may be amnesiac (stopped or still catching
     up): beyond that no quorum is guaranteed to hold every durable
     decision.  A fresh incarnation catches up through the protocol. *)
  let may_kill cfg ~group ~k:_ =
    count (fun r -> Replica.is_stopped r || Replica.is_recovering r) group
    < cfg.Morty.Config.f

  let rejoin fresh ~group:_ =
    Replica.start_catchup fresh;
    (0, 0)

  (* Transfers are counted by the donors, and catch-ups when they
     complete: one may still be running at the horizon. *)
  let recovery replicas (rc : Stats.recovery) =
    List.fold_left
      (fun (rc : Stats.recovery) r ->
        let st = Replica.stats r in
        { rc with
          rc_transfer_msgs = rc.rc_transfer_msgs + st.state_transfer_msgs;
          rc_transfer_bytes = rc.rc_transfer_bytes + st.state_transfer_bytes;
          rc_catchups = rc.rc_catchups + st.catchups;
          rc_catchup_wait_us = rc.rc_catchup_wait_us + st.catchup_wait_us })
      { rc with rc_catchups = 0 } replicas

  let reexecs_per_txn clients =
    let committed, reexecs =
      List.fold_left
        (fun (c, r) client ->
          let st = Client.stats client in
          (c + st.committed, r + st.reexecs))
        (0, 0) clients
    in
    if committed = 0 then 0. else float_of_int reexecs /. float_of_int committed
end

(* What TAPIR and Spanner share: [e_cores] groups of single-core
   replicas, and amnesia emulated at the harness level.  A restart
   instantly installs snapshots (committed store + prepared table) from
   every surviving group peer, counted as one transfer message each. *)
module Grouped = struct
  let cores _ = 1
  let slot_name ~g ~k = Printf.sprintf "g%dr%d" g k
  let wmark_lag _ ~now:_ = 0
  let recovery _ rc = rc
  let reexecs_per_txn _ = 0.

  let install_from_peers ~snapshot ~install ~size ~is_stopped fresh ~group =
    Array.fold_left
      (fun (msgs, bytes) peer ->
        if peer == fresh || is_stopped peer then (msgs, bytes)
        else begin
          let sn = snapshot peer in
          install fresh sn;
          (msgs + 1, bytes + size sn)
        end)
      (0, 0) group
end

(* TAPIR: replica [k] of every group in region [k mod R]. *)
module Tapir_stack = struct
  include Grouped
  module Client = Tapir.Client
  module Replica = Tapir.Replica

  type msg = Tapir.Msg.t
  type cfg = Tapir.Config.t

  let label = Tapir.Msg.label

  let config e =
    { Tapir.Config.default with n_groups = max 1 e.e_cores;
      prepare_timeout_us = timeout_for e.e_setup;
      max_staleness_us = e.e_max_staleness_us }

  let shape cfg = (cfg.Tapir.Config.n_groups, Tapir.Config.n_replicas cfg)

  let create { engine; net; cores; prof; mon; lineage; _ } cfg ~regions ~g ~k =
    Replica.create ~cfg ~engine ~net ~group:g ~index:k
      ~region:regions.(k mod Array.length regions) ~cores ~prof ~mon ~lineage ()

  let create_at { engine; net; cores; prof; mon; lineage; _ } cfg ~node ~g ~k =
    Replica.create_at ~node ~cfg ~engine ~net ~group:g ~index:k ~cores ~prof ~mon
      ~lineage ()

  let client { engine; net; rng; obs; prof; mon; lineage; _ } cfg ~region ~groups
      ~partition ~on_finish =
    Client.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng) ~region ~groups
      ~partition ~obs ~prof ~mon ~lineage ~on_finish ()

  let records = Replica.prepared_count

  let may_kill cfg ~group ~k:_ =
    count Replica.is_stopped group < cfg.Tapir.Config.f

  let rejoin =
    install_from_peers ~snapshot:Replica.snapshot ~install:Replica.install
      ~size:Replica.snapshot_bytes ~is_stopped:Replica.is_stopped
end

(* Spanner: replica [k] of group [g] in region [(g+k) mod R], so the
   group leaders (replica 0) spread across regions. *)
module Spanner_stack = struct
  include Grouped
  module Client = Spanner.Client
  module Replica = Spanner.Replica

  type msg = Spanner.Msg.t
  type cfg = Spanner.Config.t

  let label = Spanner.Msg.label

  let config e =
    { Spanner.Config.default with n_groups = max 1 e.e_cores;
      max_staleness_us = e.e_max_staleness_us }

  let shape cfg = (cfg.Spanner.Config.n_groups, Spanner.Config.n_replicas cfg)

  let create { engine; net; cores; prof; mon; lineage; _ } cfg ~regions ~g ~k =
    Replica.create ~cfg ~engine ~net ~group:g ~index:k
      ~region:regions.((g + k) mod Array.length regions) ~cores ~prof ~mon
      ~lineage ()

  let create_at { engine; net; cores; prof; mon; lineage; _ } cfg ~node ~g ~k =
    Replica.create_at ~node ~cfg ~engine ~net ~group:g ~index:k ~cores ~prof ~mon
      ~lineage ()

  let client { engine; net; rng; obs; prof; mon; lineage; _ } cfg ~region ~groups
      ~partition ~on_finish =
    Client.create ~cfg ~engine ~net ~rng:(Sim.Rng.split rng) ~region
      ~leaders:(Array.map (fun group -> group.(0)) groups)
      ~partition ~groups ~obs ~prof ~mon ~lineage ~on_finish ()

  let records = Replica.prepared_count

  (* Followers only: the content-free Paxos emulation replicates record
     existence, not payloads, so a leader's committed writes survive
     nowhere else and killing one would ghost-lose committed data. *)
  let may_kill cfg ~group ~k =
    k <> 0 && count Replica.is_stopped group < cfg.Spanner.Config.f

  let rejoin =
    install_from_peers ~snapshot:Replica.snapshot ~install:Replica.install
      ~size:Replica.snapshot_bytes ~is_stopped:Replica.is_stopped
end

(* --- The generic runner ----------------------------------------------------- *)

let initial_data = function
  | Tpcc conf -> Workload.Tpcc.initial_data conf
  | Retwis conf -> Workload.Retwis.initial_data conf
  | Ycsb conf -> Workload.Ycsb.initial_data conf
  | Smallbank conf -> Workload.Smallbank.initial_data conf

(* Client [i]'s key-to-group routing.  [Tapir_nodist] is the best-case
   variant of Fig. 8a: every transaction stays within the client's home
   group (data is fully replicated in the simulator, so this is
   consistent). *)
let partition e ~n_groups i =
  match (e.e_system, e.e_workload) with
  | Tapir_nodist, _ ->
    let home = i mod n_groups in
    fun _ -> home
  | _, Tpcc conf ->
    let home_group = (tpcc_home conf i - 1) mod n_groups in
    Workload.Tpcc.partition_of_key ~home_group ~n_groups
  | _, Retwis _ -> Workload.Retwis.partition_of_key ~n_groups
  | _, Ycsb _ -> Workload.Ycsb.partition_of_key ~n_groups
  | _, Smallbank _ -> Workload.Smallbank.partition_of_key ~n_groups

module Make (S : Stack) = struct
  module Tpcc = Workload.Tpcc.Make (S.Client)
  module Retwis = Workload.Retwis.Make (S.Client)
  module Ycsb = Workload.Ycsb.Make (S.Client)
  module Smallbank = Workload.Smallbank.Make (S.Client)

  (* Client [i]'s transaction mix is [pick ~lineage workload i].  The
     partial application [pick ~lineage workload] builds the workload's
     Zipf sampler once per run; every client shares it, since it is never
     mutated and each client draws from it with its own RNG.  Each runner
     stages its lineage label per attempt: the begin under it consumes
     the label, and retries rerun the runner. *)
  let pick ~lineage workload =
    let mix =
      match workload with
      | Tpcc conf ->
        fun i label ->
          let home_w = tpcc_home conf i in
          fun rng ->
            let kind = Workload.Tpcc.pick_kind rng in
            fun client rng done_ ->
              label (Workload.Tpcc.kind_name kind);
              Tpcc.run conf client rng ~home_w kind done_
      | Retwis conf ->
        let zipf = Workload.Retwis.sampler conf in
        fun _ label rng ->
          let kind = Workload.Retwis.pick_kind rng in
          fun client rng done_ ->
            label (Workload.Retwis.kind_name kind);
            Retwis.run client rng zipf kind done_
      | Ycsb conf ->
        let zipf = Workload.Ycsb.sampler conf in
        fun _ label _rng client rng done_ ->
          label "ycsb";
          Ycsb.run conf client rng zipf done_
      | Smallbank conf ->
        let zipf = Workload.Smallbank.sampler conf in
        fun _ label rng ->
          let kind = Workload.Smallbank.pick_kind rng in
          fun client rng done_ ->
            label (Workload.Smallbank.kind_name kind);
            Smallbank.run conf client rng zipf kind done_
    in
    fun i -> mix i (Obs.Lineage.next_txn_label lineage)

  let run ?cfg ?on_txn ?faults ?(obs = Obs.Sink.null ())
      ?(prof = Obs.Profile.null ()) ?(mon = Obs.Monitor.null ())
      ?(flight = Obs.Flight.null ()) ?(lineage = Obs.Lineage.null ()) e =
    let probe = Obs.Engstat.start () in
    let engine = Engine.create () in
    let rng = Sim.Rng.create e.e_seed in
    let net = Simnet.Net.create engine (Sim.Rng.split rng) ~setup:e.e_setup () in
    let regions = Latency.regions e.e_setup in
    let env = { engine; net; rng; cores = S.cores e; obs; prof; mon; lineage } in
    let cfg = match cfg with Some c -> c | None -> S.config e in
    let n_groups, nrep = S.shape cfg in
    let groups =
      Array.init n_groups (fun g ->
          Array.init nrep (fun k -> S.create env cfg ~regions ~g ~k))
    in
    let group_nodes = Array.map (Array.map S.Replica.node) groups in
    Array.iteri
      (fun g -> Array.iter (fun r -> S.Replica.set_peers r group_nodes.(g)))
      groups;
    (* Read [groups] at use: restarts swap fresh incarnations into it. *)
    let replicas () = List.concat_map Array.to_list (Array.to_list groups) in
    Obs.Monitor.register_views mon (fun () ->
        List.map S.Replica.state_view (replicas ()));
    Taps.attach_flight ~engine ~net ~obs ~flight ~label:S.label;
    let data = initial_data e.e_workload in
    Array.iter (Array.iter (fun r -> S.Replica.load r data)) groups;
    let stats = Stats.create () in
    let warm_start = e.e_warmup_us in
    let warm_end = e.e_warmup_us + e.e_measure_us in
    let in_window t = t >= warm_start && t < warm_end in
    let av = Avail.create () in
    let on_finish (r : Record.t) =
      Avail.note_txn av ~now:r.h_end_us ~in_window:(in_window r.h_end_us)
        ~ro:r.h_ro ~committed:r.h_committed ~staleness_us:r.h_staleness_us;
      if r.h_committed && in_window r.h_end_us then begin
        Stats.record_phase stats Stats.P_execute ~dur_us:r.h_exec_us;
        Stats.record_phase stats Stats.P_prepare ~dur_us:r.h_prepare_us;
        Stats.record_phase stats Stats.P_finalize ~dur_us:r.h_finalize_us
      end;
      match on_txn with Some f -> f (txn_of_record r) | None -> ()
    in
    let pick = pick ~lineage e.e_workload in
    let clients =
      List.init e.e_clients (fun i ->
          let client =
            S.client env cfg ~region:(client_region regions i) ~groups:group_nodes
              ~partition:(partition e ~n_groups i) ~on_finish
          in
          let crng = Sim.Rng.split rng in
          closed_loop ~engine ~rng:crng ~client ~pick:(pick i)
            ~stats ~warm_start ~warm_end ~prof
            ~comps:(fun () -> S.Client.last_comps client)
            ~backoff_base_us:e.e_backoff_base_us;
          client)
    in
    let msgs_at_warm = ref 0 in
    ignore
      (Engine.schedule engine ~after:warm_start (fun () ->
           msgs_at_warm := Simnet.Net.messages_delivered net;
           List.iter
             (fun r -> Simnet.Cpu.reset_stats (S.Replica.cpu r))
             (replicas ())));
    let prev_busy = Array.make (n_groups * nrep) 0 in
    let finish_metrics =
      Taps.install_metrics ~engine ~obs ~horizon:warm_end ~sample:(fun ~now ->
          Array.iteri
            (fun g group ->
              Array.iteri
                (fun k r ->
                  let cpu = S.Replica.cpu r in
                  Obs.Sink.sample obs
                    {
                      Obs.Sink.sm_ts = now;
                      sm_replica = S.slot_name ~g ~k;
                      sm_cpu_busy =
                        Taps.busy_frac prev_busy ~slot:((g * nrep) + k)
                          ~cores:env.cores ~busy_us:(Simnet.Cpu.busy_us cpu);
                      sm_queue = Simnet.Cpu.queue_length cpu;
                      sm_records = S.records r;
                      sm_versions = S.Replica.store_size r;
                      sm_wmark_lag = S.wmark_lag r ~now;
                    })
                group)
            groups)
    in
    let kills = ref 0 and restarts = ref 0 in
    let transfer_msgs = ref 0 and transfer_bytes = ref 0 in
    let locate i =
      let total = n_groups * nrep in
      let i = ((i mod total) + total) mod total in
      (i / nrep, i mod nrep)
    in
    (* Amnesia: [kill] stops the incarnation (dropping queued CPU work)
       and crashes its node, if the stack's guard allows; [restart]
       registers a fresh incarnation on the same node and lets the stack
       rejoin it.  Both are idempotent — the shrinker may drop either
       half of a Kill/Restart pair. *)
    let kill i =
      let g, k = locate i in
      let r = groups.(g).(k) in
      if (not (S.Replica.is_stopped r)) && S.may_kill cfg ~group:groups.(g) ~k
      then begin
        S.Replica.stop r;
        Simnet.Net.crash net (S.Replica.node r);
        Obs.Monitor.note_kill mon ~ts:(Engine.now engine)
          ~replica:(S.slot_name ~g ~k);
        incr kills
      end
    in
    let restart i =
      let g, k = locate i in
      let old = groups.(g).(k) in
      if S.Replica.is_stopped old then begin
        let node = S.Replica.node old in
        let fresh = S.create_at env cfg ~node ~g ~k in
        S.Replica.set_peers fresh group_nodes.(g);
        groups.(g).(k) <- fresh;
        (* Recover the node before rejoining: sends from a crashed node
           are dropped. *)
        Simnet.Net.recover net node;
        let msgs, bytes = S.rejoin fresh ~group:groups.(g) in
        transfer_msgs := !transfer_msgs + msgs;
        transfer_bytes := !transfer_bytes + bytes;
        incr restarts
      end
    in
    Option.iter
      (fun f ->
        f
          (make_cluster_ops engine net
             (Array.concat (Array.to_list group_nodes))
             ~regions
             ~on_heal:(fun () -> Avail.note_heal av ~now:(Engine.now engine))
             ~kill ~restart))
      faults;
    Engine.run_until engine ~limit:warm_end;
    finish_metrics ();
    let window_msgs = Simnet.Net.messages_delivered net - !msgs_at_warm in
    let replicas = replicas () in
    let cpu =
      List.fold_left
        (fun acc r ->
          acc +. Simnet.Cpu.utilization (S.Replica.cpu r) ~duration:e.e_measure_us)
        0. replicas
      /. float_of_int (List.length replicas)
    in
    let msgs_per_txn =
      if Stats.committed stats = 0 then 0.
      else float_of_int window_msgs /. float_of_int (Stats.committed stats)
    in
    let recovery =
      S.recovery replicas
        {
          Stats.rc_kills = !kills;
          rc_restarts = !restarts;
          rc_transfer_msgs = !transfer_msgs;
          rc_transfer_bytes = !transfer_bytes;
          rc_catchups = !restarts;
          rc_catchup_wait_us = 0;
          rc_ttr_write_us = Avail.ttr_write_us av;
          rc_ttr_wm_us = Avail.ttr_wm_us av;
        }
    in
    Stats.to_result stats ~label:e.e_label ~duration_us:e.e_measure_us
      ~cpu_utilization:cpu ~reexecs_per_txn:(S.reexecs_per_txn clients)
      ~msgs_per_txn ~events:(Taps.events_of_engine engine) ~recovery
      ?avail:(if e.e_max_staleness_us > 0 then Some (Avail.result av) else None)
      ~engstat:(Taps.engstat_of_engine probe ~label:e.e_label engine)
      ?lineage:
        (if Obs.Lineage.enabled lineage then
           Some (Obs.Lineage.summary (Obs.Lineage.records lineage))
         else None)
      ()
end

module Morty_run = Make (Morty_stack)
module Tapir_run = Make (Tapir_stack)
module Spanner_run = Make (Spanner_stack)

let run_exp ?on_txn ?faults ?obs ?prof ?mon ?flight ?lineage e =
  match e.e_system with
  | Morty | Mvtso ->
    Morty_run.run ?on_txn ?faults ?obs ?prof ?mon ?flight ?lineage e
  | Tapir | Tapir_nodist ->
    Tapir_run.run ?on_txn ?faults ?obs ?prof ?mon ?flight ?lineage e
  | Spanner ->
    Spanner_run.run ?on_txn ?faults ?obs ?prof ?mon ?flight ?lineage e

let run_exp_audited ?faults ?obs ?prof ?mon ?flight ?lineage e =
  let txns = ref [] in
  let result =
    run_exp ~on_txn:(fun t -> txns := t :: !txns) ?faults ?obs ?prof ?mon
      ?flight ?lineage e
  in
  (result, List.rev !txns)

let run_morty_with_config ?obs ?prof ?mon ?flight ?lineage e cfg =
  Morty_run.run ~cfg ?obs ?prof ?mon ?flight ?lineage e

let find_peak ?(runner = List.map (fun f -> f ())) mk ~client_counts =
  let results = runner (List.map (fun n () -> run_exp (mk n)) client_counts) in
  match results with
  | [] -> invalid_arg "find_peak: no client counts"
  | first :: rest ->
    List.fold_left
      (fun best r -> if r.Stats.r_goodput > best.Stats.r_goodput then r else best)
      first rest

(* --- Availability timeline (extension): goodput around a replica
   outage.  Models a transient outage: the replica's state survives and
   it resumes from where it was (a network blip / process pause, not a
   disk loss).  A committed transaction lands in the bucket of its
   finish time: [on_finish] fires at that instant, before the outcome
   continuation. *)

let run_failover ?victim e ~crash_at_us ~recover_at_us ~bucket_us =
  let horizon = e.e_warmup_us + e.e_measure_us in
  let buckets = Array.make ((horizon / bucket_us) + 1) 0 in
  let on_txn (t : Adya.History.txn) =
    let b = t.commit_us / bucket_us in
    if t.committed && b < Array.length buckets then buckets.(b) <- buckets.(b) + 1
  in
  let faults ops =
    let victim = Option.value victim ~default:(ops.co_n_replicas - 1) in
    ignore
      (Engine.schedule ops.co_engine ~after:crash_at_us (fun () ->
           ops.co_crash victim));
    ignore
      (Engine.schedule ops.co_engine ~after:recover_at_us (fun () ->
           ops.co_recover victim))
  in
  ignore (run_exp ~on_txn ~faults e);
  Array.to_list (Array.mapi (fun i c -> (i * bucket_us, c)) buckets)
