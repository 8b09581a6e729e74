type violation =
  | Time_anomaly of { ver : Cc_types.Version.t; start_us : int; commit_us : int }
  | Duplicate_version of string
  | Not_serializable of Adya.Dsg.violation
  | Bad_commit_rate of float
  | No_progress
  | Monitor_violation of Obs.Monitor.violation

let history_of txns =
  try Ok (Adya.History.of_list txns)
  with Invalid_argument msg -> Error (Duplicate_version msg)

let ( let* ) = Result.bind

let check_times txns =
  let rec go = function
    | [] -> Ok ()
    | (t : Adya.History.txn) :: rest ->
      if t.start_us < 0 || (t.committed && t.commit_us < t.start_us) then
        Error
          (Time_anomaly { ver = t.ver; start_us = t.start_us; commit_us = t.commit_us })
      else go rest
  in
  go txns

let check ?(expect_progress = false) txns (result : Harness.Stats.result) =
  let* () = check_times txns in
  let* history = history_of txns in
  let* () =
    match Adya.Dsg.check history with
    | Ok () -> Ok ()
    | Error v -> Error (Not_serializable v)
  in
  let rate = result.Harness.Stats.r_commit_rate in
  let* () =
    if rate < 0. || rate > 1. then Error (Bad_commit_rate rate) else Ok ()
  in
  if expect_progress && result.Harness.Stats.r_committed <= 0 then Error No_progress
  else Ok ()

let pp_violation ppf = function
  | Time_anomaly { ver; start_us; commit_us } ->
    Fmt.pf ppf "non-monotone virtual time on %a: start=%d commit=%d"
      Cc_types.Version.pp ver start_us commit_us
  | Duplicate_version msg -> Fmt.pf ppf "duplicate transaction version (%s)" msg
  | Not_serializable v -> Fmt.pf ppf "not serializable: %a" Adya.Dsg.pp_violation v
  | Bad_commit_rate r -> Fmt.pf ppf "commit rate %f outside [0, 1]" r
  | No_progress -> Fmt.pf ppf "fault-free run committed nothing"
  | Monitor_violation v ->
    Fmt.pf ppf "invariant monitor fired: %a" Obs.Monitor.pp_violation v

let violation_to_string v = Fmt.str "%a" pp_violation v
