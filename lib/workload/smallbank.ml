type conf = { n_customers : int; theta : float; initial_balance : int }

let default_conf = { n_customers = 1_000; theta = 0.9; initial_balance = 10_000 }

type kind =
  | Balance
  | Deposit_checking
  | Transact_savings
  | Amalgamate
  | Write_check
  | Send_payment

let kind_name = function
  | Balance -> "balance"
  | Deposit_checking -> "deposit-checking"
  | Transact_savings -> "transact-savings"
  | Amalgamate -> "amalgamate"
  | Write_check -> "write-check"
  | Send_payment -> "send-payment"

let mix =
  [
    (Balance, 15); (Deposit_checking, 15); (Transact_savings, 15);
    (Amalgamate, 15); (Write_check, 25); (Send_payment, 15);
  ]

let pick_kind rng =
  let r = Sim.Rng.int rng 100 in
  let rec go acc = function
    | [] -> Balance
    | (k, pct) :: rest -> if r < acc + pct then k else go (acc + pct) rest
  in
  go 0 mix

let is_read_only = function
  | Balance -> true
  | Deposit_checking | Transact_savings | Amalgamate | Write_check | Send_payment ->
    false

let checking_key c = Dec.cat1 "chk:" c

let savings_key c = Dec.cat1 "sav:" c

let initial_data conf =
  List.concat_map
    (fun c ->
      [
        (checking_key c, Dec.to_string conf.initial_balance);
        (savings_key c, Dec.to_string conf.initial_balance);
      ])
    (List.init conf.n_customers (fun i -> i))

let total_money conf = 2 * conf.n_customers * conf.initial_balance

let sampler conf = Sim.Dist.zipf ~n:conf.n_customers ~theta:conf.theta

(* The customer id after the key's only [':'], read in place. *)
let partition_of_key ~n_groups key =
  let len = String.length key in
  let colon = Dec.index_or_end key 0 ':' in
  if colon = len || Dec.index_or_end key (colon + 1) ':' < len then 0
  else
    let pos = colon + 1 in
    let c = Dec.digits key pos (len - pos) in
    if c >= 0 then c mod n_groups
    else
      match int_of_string_opt (String.sub key pos (len - pos)) with
      | Some c -> c mod n_groups
      | None -> 0

module Make (C : Cc_types.Kv_api.S) = struct
  let int_of = Dec.int_or_zero

  let two_customers rng zipf =
    let a = Sim.Dist.zipf_sample zipf rng in
    let rec pick_b guard =
      let b = Sim.Dist.zipf_sample zipf rng in
      if b <> a || guard = 0 then b else pick_b (guard - 1)
    in
    (a, pick_b 100)

  let balance client zipf rng done_ =
    let c = Sim.Dist.zipf_sample zipf rng in
    C.begin_ro client (fun ctx ->
        C.get client ctx (checking_key c) (fun ctx _ ->
            C.get client ctx (savings_key c) (fun ctx _ ->
                C.commit client ctx done_)))

  let deposit_checking client zipf rng ~on_delta done_ =
    let c = Sim.Dist.zipf_sample zipf rng in
    let amount = 1 + Sim.Rng.int rng 100 in
    C.begin_ client (fun ctx ->
        C.get_for_update client ctx (checking_key c) (fun ctx v ->
            on_delta amount;
            let ctx =
              C.put client ctx (checking_key c) (Dec.to_string (int_of v + amount))
            in
            C.commit client ctx done_))

  let transact_savings client zipf rng ~on_delta done_ =
    let c = Sim.Dist.zipf_sample zipf rng in
    let amount = 1 + Sim.Rng.int rng 100 in
    C.begin_ client (fun ctx ->
        C.get_for_update client ctx (savings_key c) (fun ctx v ->
            (* Withdraw when funds allow, else deposit. *)
            let delta = if int_of v >= amount then -amount else amount in
            on_delta delta;
            let ctx =
              C.put client ctx (savings_key c) (Dec.to_string (int_of v + delta))
            in
            C.commit client ctx done_))

  let amalgamate client zipf rng done_ =
    let a, b = two_customers rng zipf in
    C.begin_ client (fun ctx ->
        C.get_for_update client ctx (savings_key a) (fun ctx sa ->
            C.get_for_update client ctx (checking_key a) (fun ctx ca ->
                C.get_for_update client ctx (checking_key b) (fun ctx cb ->
                    let total = int_of sa + int_of ca in
                    let ctx = C.put client ctx (savings_key a) "0" in
                    let ctx = C.put client ctx (checking_key a) "0" in
                    let ctx =
                      C.put client ctx (checking_key b)
                        (Dec.to_string (int_of cb + total))
                    in
                    C.commit client ctx done_))))

  let write_check client zipf rng ~on_delta done_ =
    let c = Sim.Dist.zipf_sample zipf rng in
    let amount = 1 + Sim.Rng.int rng 100 in
    C.begin_ client (fun ctx ->
        C.get client ctx (savings_key c) (fun ctx sv ->
            C.get_for_update client ctx (checking_key c) (fun ctx cv ->
                (* The classic write-skew shape: the overdraft penalty
                   depends on the *sum* of both balances but only the
                   checking account is written. *)
                let penalty = if int_of sv + int_of cv < amount then 1 else 0 in
                let debit = amount + penalty in
                on_delta (-debit);
                let ctx =
                  C.put client ctx (checking_key c)
                    (Dec.to_string (int_of cv - debit))
                in
                C.commit client ctx done_)))

  let send_payment client zipf rng done_ =
    let a, b = two_customers rng zipf in
    let amount = 1 + Sim.Rng.int rng 50 in
    C.begin_ client (fun ctx ->
        C.get_for_update client ctx (checking_key a) (fun ctx va ->
            C.get_for_update client ctx (checking_key b) (fun ctx vb ->
                if int_of va < amount then
                  (* Insufficient funds: commit without effect. *)
                  C.commit client ctx done_
                else
                  let ctx =
                    C.put client ctx (checking_key a)
                      (Dec.to_string (int_of va - amount))
                  in
                  let ctx =
                    C.put client ctx (checking_key b)
                      (Dec.to_string (int_of vb + amount))
                  in
                  C.commit client ctx done_)))

  let run ?(on_delta = fun (_ : int) -> ()) conf client rng zipf kind done_ =
    ignore conf;
    let once = ref false in
    let done_ o =
      if not !once then begin
        once := true;
        done_ o
      end
    in
    match kind with
    | Balance -> balance client zipf rng done_
    | Deposit_checking -> deposit_checking client zipf rng ~on_delta done_
    | Transact_savings -> transact_savings client zipf rng ~on_delta done_
    | Amalgamate -> amalgamate client zipf rng done_
    | Write_check -> write_check client zipf rng ~on_delta done_
    | Send_payment -> send_payment client zipf rng done_
end
