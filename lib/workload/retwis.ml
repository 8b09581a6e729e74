type conf = { n_keys : int; theta : float }

let default_conf = { n_keys = 100_000; theta = 0.9 }

type kind = Add_user | Follow | Post_tweet | Load_timeline

let kind_name = function
  | Add_user -> "add-user"
  | Follow -> "follow"
  | Post_tweet -> "post-tweet"
  | Load_timeline -> "load-timeline"

let mix = [ (Add_user, 5); (Follow, 15); (Post_tweet, 30); (Load_timeline, 50) ]

let pick_kind rng =
  let r = Sim.Rng.int rng 100 in
  let rec go acc = function
    | [] -> Load_timeline
    | (k, pct) :: rest -> if r < acc + pct then k else go (acc + pct) rest
  in
  go 0 mix

let is_read_only = function
  | Load_timeline -> true
  | Add_user | Follow | Post_tweet -> false

let key i = Dec.cat1 "key:" i

let initial_data conf = List.init conf.n_keys (fun i -> (key i, "0"))

let sampler conf = Sim.Dist.zipf ~n:conf.n_keys ~theta:conf.theta

let partition_of_key ~n_groups k = Hashtbl.hash k mod n_groups

(* Distinct Zipf-distributed keys; at most ten ids, so a list beats a
   table. *)
let pick_keys rng zipf n =
  let rec go seen acc remaining guard =
    if remaining = 0 || guard = 0 then acc
    else
      let i = Sim.Dist.zipf_sample zipf rng in
      if List.mem i seen then go seen acc remaining (guard - 1)
      else go (i :: seen) (key i :: acc) (remaining - 1) (guard - 1)
  in
  go [] [] n (n * 100)

module Make (C : Cc_types.Kv_api.S) = struct
  let rec each ctx xs f k =
    match xs with
    | [] -> k ctx
    | x :: rest -> f ctx x (fun ctx -> each ctx rest f k)

  let incr_value v = Dec.to_string (Dec.int_or_zero v + 1)

  (* [rmws] read–modify–writes followed by [blind] blind writes. *)
  let read_modify_write client rng zipf ~rmws ~blind done_ =
    let rmw_keys = pick_keys rng zipf rmws in
    let blind_keys = pick_keys rng zipf blind in
    C.begin_ client (fun ctx ->
        each ctx rmw_keys
          (fun ctx k cont ->
            C.get_for_update client ctx k (fun ctx v ->
                cont (C.put client ctx k (incr_value v))))
          (fun ctx ->
            let ctx =
              List.fold_left (fun ctx k -> C.put client ctx k "1") ctx blind_keys
            in
            C.commit client ctx done_))

  let load_timeline client rng zipf done_ =
    let n = 1 + Sim.Rng.int rng 10 in
    let keys = pick_keys rng zipf n in
    C.begin_ro client (fun ctx ->
        each ctx keys
          (fun ctx k cont -> C.get client ctx k (fun ctx _ -> cont ctx))
          (fun ctx -> C.commit client ctx done_))

  let run client rng zipf kind done_ =
    let once = ref false in
    let done_ o =
      if not !once then begin
        once := true;
        done_ o
      end
    in
    match kind with
    | Add_user -> read_modify_write client rng zipf ~rmws:1 ~blind:1 done_
    | Follow -> read_modify_write client rng zipf ~rmws:2 ~blind:0 done_
    | Post_tweet -> read_modify_write client rng zipf ~rmws:3 ~blind:2 done_
    | Load_timeline -> load_timeline client rng zipf done_
end
