type conf = { n_keys : int; theta : float; ops_per_txn : int; read_pct : int }

let default_conf = { n_keys = 100_000; theta = 0.9; ops_per_txn = 4; read_pct = 50 }

let workload_a = default_conf

let workload_b = { default_conf with read_pct = 95 }

let workload_c = { default_conf with read_pct = 100 }

let workload_f = { default_conf with read_pct = 0 }

let key i = Dec.cat1 "y:" i

let initial_data conf = List.init conf.n_keys (fun i -> (key i, "0"))

let sampler conf = Sim.Dist.zipf ~n:conf.n_keys ~theta:conf.theta

let partition_of_key ~n_groups k = Hashtbl.hash k mod n_groups

module Make (C : Cc_types.Kv_api.S) = struct
  type op = Read of string | Update of string

  let plan conf rng zipf =
    (* At most [ops_per_txn] ids: a list beats a table. *)
    let seen = ref [] in
    let rec fresh_key guard =
      let i = Sim.Dist.zipf_sample zipf rng in
      if List.mem i !seen && guard > 0 then fresh_key (guard - 1)
      else begin
        seen := i :: !seen;
        key i
      end
    in
    List.init conf.ops_per_txn (fun _ ->
        let k = fresh_key 100 in
        if Sim.Rng.int rng 100 < conf.read_pct then Read k else Update k)

  let run conf client rng zipf done_ =
    let ops = plan conf rng zipf in
    let read_only = List.for_all (function Read _ -> true | Update _ -> false) ops in
    let begin_ = if read_only then C.begin_ro else C.begin_ in
    let once = ref false in
    let done_ o =
      if not !once then begin
        once := true;
        done_ o
      end
    in
    begin_ client (fun ctx ->
        let rec go ctx = function
          | [] -> C.commit client ctx done_
          | Read k :: rest -> C.get client ctx k (fun ctx _ -> go ctx rest)
          | Update k :: rest ->
            C.get_for_update client ctx k (fun ctx v ->
                go (C.put client ctx k (Dec.to_string (Dec.int_or_zero v + 1))) rest)
        in
        go ctx ops)
end
