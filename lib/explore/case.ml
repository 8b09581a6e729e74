type t = {
  c_system : Harness.Run.system;
  c_workload : string;
  c_seed : int;
  c_clients : int;
  c_cores : int;
  c_warmup_us : int;
  c_measure_us : int;
  c_max_staleness_us : int;
  c_schedule : Schedule.t;
}

(* Small bounded configurations: the explorer runs hundreds of these,
   so each must finish in well under a second of wall clock. *)
let workloads =
  [
    ( "ycsb-small",
      Harness.Run.Ycsb
        { Workload.Ycsb.n_keys = 200; theta = 0.9; ops_per_txn = 4; read_pct = 50 } );
    ( "ycsb-readheavy",
      Harness.Run.Ycsb
        { Workload.Ycsb.n_keys = 200; theta = 0.9; ops_per_txn = 4; read_pct = 95 } );
    ( "retwis-small",
      Harness.Run.Retwis { Workload.Retwis.n_keys = 500; theta = 0.9 } );
    ( "smallbank-small",
      Harness.Run.Smallbank
        { Workload.Smallbank.n_customers = 100; theta = 0.9; initial_balance = 100 } );
    ( "tpcc-small",
      Harness.Run.Tpcc
        {
          Workload.Tpcc.n_warehouses = 2;
          districts_per_warehouse = 2;
          customers_per_district = 5;
          n_items = 20;
          initial_orders_per_district = 3;
          max_items_per_order = 6;
        } );
  ]

let workload name =
  match List.assoc_opt name workloads with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Explore.Case: unknown workload %S" name)

let default =
  {
    c_system = Harness.Run.Morty;
    c_workload = "ycsb-small";
    c_seed = 1;
    c_clients = 8;
    c_cores = 2;
    c_warmup_us = 50_000;
    c_measure_us = 200_000;
    c_max_staleness_us = 0;
    c_schedule = Schedule.empty;
  }

let horizon_us c = c.c_warmup_us + c.c_measure_us

let label c =
  Printf.sprintf "%s/%s seed=%d sched=%s"
    (Harness.Run.system_name c.c_system)
    c.c_workload c.c_seed
    (Schedule.to_string c.c_schedule)

let exp_of c =
  {
    Harness.Run.default_exp with
    e_system = c.c_system;
    e_workload = workload c.c_workload;
    e_clients = c.c_clients;
    e_cores = c.c_cores;
    e_warmup_us = c.c_warmup_us;
    e_measure_us = c.c_measure_us;
    e_seed = c.c_seed;
    e_label = label c;
    e_max_staleness_us = c.c_max_staleness_us;
  }

let run ?(obs = Obs.Bus.null ()) c =
  let faults =
    if Schedule.is_empty c.c_schedule then None else Some (Schedule.apply c.c_schedule)
  in
  let result, txns =
    Harness.Run.run_exp_audited ?faults ~obs (exp_of c)
  in
  match
    Audit.check ~expect_progress:(Schedule.is_empty c.c_schedule) txns result
  with
  | Ok () -> (
    (* Monitor hits share the audit's failure surface, so the shrinker
       minimizes them the same way. *)
    match Obs.Monitor.violations (Obs.Bus.monitor obs) with
    | [] -> Ok result
    | v :: _ -> Error (Audit.Monitor_violation v))
  | Error v -> Error v

let system_ocaml = function
  | Harness.Run.Morty -> "Harness.Run.Morty"
  | Harness.Run.Mvtso -> "Harness.Run.Mvtso"
  | Harness.Run.Tapir -> "Harness.Run.Tapir"
  | Harness.Run.Tapir_nodist -> "Harness.Run.Tapir_nodist"
  | Harness.Run.Spanner -> "Harness.Run.Spanner"

let to_ocaml c =
  Printf.sprintf
    "{ Explore.Case.default with\n\
    \    c_system = %s;\n\
    \    c_workload = %S;\n\
    \    c_seed = %d;\n\
    \    c_clients = %d;\n\
    \    c_cores = %d;\n\
    \    c_warmup_us = %d;\n\
    \    c_measure_us = %d;\n\
    \    c_max_staleness_us = %d;\n\
    \    c_schedule = %s;\n\
    \  }"
    (system_ocaml c.c_system) c.c_workload c.c_seed c.c_clients c.c_cores
    c.c_warmup_us c.c_measure_us c.c_max_staleness_us
    (Schedule.to_ocaml c.c_schedule)
