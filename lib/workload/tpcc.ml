module Outcome = Cc_types.Outcome

type conf = {
  n_warehouses : int;
  districts_per_warehouse : int;
  customers_per_district : int;
  n_items : int;
  initial_orders_per_district : int;
  max_items_per_order : int;
}

let default_conf =
  {
    n_warehouses = 10;
    districts_per_warehouse = 10;
    customers_per_district = 30;
    n_items = 100;
    initial_orders_per_district = 10;
    max_items_per_order = 10;
  }

let conf_with_warehouses n = { default_conf with n_warehouses = n }

type kind = New_order | Payment | Delivery | Order_status | Stock_level

let kind_name = function
  | New_order -> "new-order"
  | Payment -> "payment"
  | Delivery -> "delivery"
  | Order_status -> "order-status"
  | Stock_level -> "stock-level"

let mix =
  [ (New_order, 44); (Payment, 44); (Delivery, 4); (Order_status, 4); (Stock_level, 4) ]

let pick_kind rng =
  let r = Sim.Rng.int rng 100 in
  let rec go acc = function
    | [] -> New_order
    | (k, pct) :: rest -> if r < acc + pct then k else go (acc + pct) rest
  in
  go 0 mix

let is_read_only = function
  | Order_status | Stock_level -> true
  | New_order | Payment | Delivery -> false

(* TPC-C clause 4.3.2.3: customer last names are three syllables chosen
   by the digits of a number. *)
let syllables =
  [| "BAR"; "OUGHT"; "ABLE"; "PRI"; "PRES"; "ESE"; "ANTI"; "CALLY"; "ATION"; "EING" |]

let last_name n =
  syllables.((n / 100) mod 10) ^ syllables.((n / 10) mod 10) ^ syllables.(n mod 10)

(* --- Keys --------------------------------------------------------------- *)

(* [prefix:a:b:...], each in one buffer: keys are made on every
   operation. *)
let k_warehouse w = Dec.cat1 "w:" w
let k_district w d = Dec.cat2 ':' "d:" w d
let k_customer w d c = Dec.cat3 ':' "c:" w d c
let k_item i = Dec.cat1 "i:" i
let k_stock w i = Dec.cat2 ':' "s:" w i
let k_order w d o = Dec.cat3 ':' "o:" w d o
let k_new_order w d o = Dec.cat3 ':' "no:" w d o
let k_order_line w d o n = Dec.cat4 ':' "ol:" w d o n
let k_history w d c uniq = Dec.cat4 ':' "h:" w d c uniq
let k_idx_cust_order w d c = Dec.cat3 ':' "idxco:" w d c
let k_deliv_lo w d = Dec.cat2 ':' "dlo:" w d
let k_idx_last_name w d last = String.concat ":" [ Dec.cat2 ':' "idxlast:" w d; last ]

(* Row layouts (field indices). *)
let w_ytd = 1 (* [name; ytd] *)
let d_ytd = 0
and d_next_o_id = 1
and _d_tax = 2 (* [ytd; next_o_id; tax] *)
let c_balance = 1
and c_ytd_payment = 2
and c_payment_cnt = 3
and c_delivery_cnt = 4 (* [name; bal; ytd; pcnt; dcnt] *)
let i_price = 1 (* [name; price] *)
let s_quantity = 0
and s_ytd = 1
and s_order_cnt = 2
and s_remote_cnt = 3
let o_c_id = 0
and o_carrier = 2
and o_ol_cnt = 3 (* [c_id; entry; carrier; ol_cnt] *)
let ol_i_id = 0
and ol_amount = 3 (* [i_id; supply_w; qty; amount] *)

(* The warehouse id is the key's second [':']-separated field, read in
   place; the items table ([i:...]) is replicated on every group. *)
let partition_of_key ~home_group ~n_groups key =
  let len = String.length key in
  let colon = Dec.index_or_end key 0 ':' in
  if colon = 1 && key.[0] = 'i' then home_group
  else if colon = len then 0
  else
    let pos = colon + 1 in
    let n = Dec.index_or_end key pos ':' - pos in
    let w = Dec.digits key pos n in
    if w >= 0 then (w - 1) mod n_groups
    else
      match int_of_string_opt (String.sub key pos n) with
      | Some w -> (w - 1) mod n_groups
      | None -> 0

(* --- Initial database ----------------------------------------------------- *)

let initial_data conf =
  let rng = Sim.Rng.create 424242 in
  let rows = ref [] in
  let add k v = rows := (k, v) :: !rows in
  for i = 1 to conf.n_items do
    add (k_item i)
      (Row.encode
         [| Dec.cat1 "item-" i; Dec.to_string (100 + Sim.Rng.int rng 9900);
            Dec.cat1 "data-" (Sim.Rng.int rng 10_000) |])
  done;
  for w = 1 to conf.n_warehouses do
    add (k_warehouse w)
      (Row.encode
         [| Printf.sprintf "warehouse-%d" w; "0"; Printf.sprintf "%d Main St" w;
            "Springfield"; "ST"; Printf.sprintf "%05d1111" w;
            Dec.to_string (Sim.Rng.int rng 20) |]);
    for i = 1 to conf.n_items do
      add (k_stock w i)
        (Row.encode [| Dec.to_string (10 + Sim.Rng.int rng 91); "0"; "0"; "0" |])
    done;
    for d = 1 to conf.districts_per_warehouse do
      let init_orders = conf.initial_orders_per_district in
      add (k_district w d)
        (Row.encode
           [| "0"; Dec.to_string (init_orders + 1); Dec.to_string (Sim.Rng.int rng 20) |]);
      for c = 1 to conf.customers_per_district do
        (* Last names follow the spec's syllable scheme; the secondary
           index maps a (warehouse, district, last name) to a
           representative customer id for by-name lookups. *)
        let last = last_name (c - 1) in
        add (k_customer w d c)
          (Row.encode
             [| Dec.cat3 '-' "cust-" w d c; "0"; "0"; "0"; "0"; last;
                (if Sim.Rng.int rng 10 = 0 then "BC" else "GC");
                Dec.to_string (Sim.Rng.int rng 50); "0" |]);
        (* A one-field row is its field. *)
        add (k_idx_last_name w d last) (Dec.to_string c)
      done;
      (* Initial orders: the last three are undelivered. *)
      let first_undelivered = max 1 (init_orders - 2) in
      add (k_deliv_lo w d) (Dec.to_string first_undelivered);
      for o = 1 to init_orders do
        let c = 1 + Sim.Rng.int rng conf.customers_per_district in
        let ol_cnt = 5 in
        let carrier = if o < first_undelivered then Dec.to_string (1 + Sim.Rng.int rng 10) else "" in
        add (k_order w d o)
          (Row.encode [| Dec.to_string c; "0"; carrier; Dec.to_string ol_cnt |]);
        add (k_idx_cust_order w d c) (Dec.to_string o);
        if o >= first_undelivered then add (k_new_order w d o) "1";
        for n = 1 to ol_cnt do
          let i = 1 + Sim.Rng.int rng conf.n_items in
          (* Amount before quantity: the database is a function of
             this draw order. *)
          let amount = 10 + Sim.Rng.int rng 9990 in
          let qty = 1 + Sim.Rng.int rng 10 in
          add (k_order_line w d o n) (Dec.cat4 '|' "" i w qty amount)
        done
      done
    done
  done;
  !rows

(* --- Transactions ----------------------------------------------------------- *)

(* Non-uniform selections per clause 2.1.6: NURand(8191) for items and
   NURand(1023) for customers, folded onto the scaled ranges. *)
let pick_item conf rng =
  1 + (Sim.Dist.nurand rng ~a:8191 ~x:1 ~y:conf.n_items - 1) mod conf.n_items

let pick_customer conf rng =
  1 + (Sim.Dist.nurand rng ~a:1023 ~x:1 ~y:conf.customers_per_district - 1)
      mod conf.customers_per_district

(* At most [max_items_per_order] ids: the picked list is the seen set. *)
let distinct_items conf rng n =
  let rec pick acc remaining =
    if remaining = 0 then acc
    else
      let i = pick_item conf rng in
      if List.mem i acc then pick acc remaining else pick (i :: acc) (remaining - 1)
  in
  pick [] (min n conf.n_items)

module Make (C : Cc_types.Kv_api.S) = struct
  (* Sequentially run [f] over [xs], threading the context. *)
  let rec each ctx xs f k =
    match xs with
    | [] -> k ctx
    | x :: rest -> f ctx x (fun ctx -> each ctx rest f k)

  (* Like [each] but threads an accumulator.  Accumulators must flow
     through the continuations (never through mutable cells): a system
     that re-executes part of a transaction replays the continuation
     chain, and only functionally-threaded state is recomputed
     correctly. *)
  let rec fold_each ctx xs acc f k =
    match xs with
    | [] -> k ctx acc
    | x :: rest -> f ctx acc x (fun ctx acc -> fold_each ctx rest acc f k)

  let new_order conf client rng ~home_w done_ =
    let w = home_w in
    let d = 1 + Sim.Rng.int rng conf.districts_per_warehouse in
    let c = pick_customer conf rng in
    (* TPC-C clause 2.4.1.4: 1 % of New-Orders roll back (an unused item
       number is "discovered" mid-transaction). *)
    let rollback = Sim.Rng.int rng 100 = 0 in
    let ol_cnt = 5 + Sim.Rng.int rng (max 1 (conf.max_items_per_order - 4)) in
    let items =
      List.map
        (fun i ->
          let supply =
            (* 1 % of items come from a remote warehouse. *)
            if conf.n_warehouses > 1 && Sim.Rng.int rng 100 = 0 then
              1 + Sim.Rng.int rng conf.n_warehouses
            else w
          in
          (i, supply, 1 + Sim.Rng.int rng 10))
        (distinct_items conf rng ol_cnt)
    in
    C.begin_ client (fun ctx ->
        C.get client ctx (k_warehouse w) (fun ctx _wrow ->
            C.get_for_update client ctx (k_district w d) (fun ctx drow ->
                let drow = Row.decode drow in
                let o_id = Row.get_int drow d_next_o_id in
                let ctx =
                  C.put client ctx (k_district w d)
                    (Row.encode (Row.set_int drow d_next_o_id (o_id + 1)))
                in
                C.get client ctx (k_customer w d c) (fun ctx _crow ->
                    if rollback then begin
                      C.abort client ctx;
                      done_ (Cc_types.Outcome.Aborted Obs.Abort_reason.User_abort)
                    end
                    else
                    let line ctx (n, (i, supply, qty)) k =
                      C.get client ctx (k_item i) (fun ctx irow ->
                          let price = Row.field_int irow i_price in
                          C.get_for_update client ctx (k_stock supply i) (fun ctx srow ->
                              let srow = Row.decode srow in
                              let on_hand = Row.get_int srow s_quantity in
                              let on_hand =
                                if on_hand >= qty + 10 then on_hand - qty
                                else on_hand - qty + 91
                              in
                              let srow = Row.set_int srow s_quantity on_hand in
                              let srow = Row.add_int srow s_ytd qty in
                              let srow = Row.add_int srow s_order_cnt 1 in
                              let srow =
                                if supply <> w then Row.add_int srow s_remote_cnt 1
                                else srow
                              in
                              let ctx = C.put client ctx (k_stock supply i) (Row.encode srow) in
                              let ctx =
                                C.put client ctx (k_order_line w d o_id n)
                                  (Dec.cat4 '|' "" i supply qty (price * qty))
                              in
                              k ctx))
                    in
                    let numbered = List.mapi (fun idx it -> (idx + 1, it)) items in
                    each ctx numbered line (fun ctx ->
                        let ctx =
                          C.put client ctx (k_order w d o_id)
                            (Row.encode
                               [| Dec.to_string c; "0"; ""; Dec.to_string (List.length items) |])
                        in
                        let ctx = C.put client ctx (k_new_order w d o_id) "1" in
                        let ctx = C.put client ctx (k_idx_cust_order w d c) (Dec.to_string o_id) in
                        C.commit client ctx done_)))))

  let payment conf client rng ~home_w done_ =
    let w = home_w in
    let d = 1 + Sim.Rng.int rng conf.districts_per_warehouse in
    (* 15 % of payments are for a remote customer. *)
    let c_w, c_d =
      if conf.n_warehouses > 1 && Sim.Rng.int rng 100 < 15 then
        (1 + Sim.Rng.int rng conf.n_warehouses, 1 + Sim.Rng.int rng conf.districts_per_warehouse)
      else (w, d)
    in
    let amount = 100 + Sim.Rng.int rng 490_000 in
    let uniq = Sim.Rng.int rng 1_000_000_000 in
    (* Clause 2.5.1.2: 60 % of payments select the customer by last name
       via the secondary index; 40 % by id (NURand). *)
    let by_name = Sim.Rng.int rng 100 < 60 in
    let with_customer ctx k =
      if by_name then
        let last = last_name (Sim.Rng.int rng (min 1000 conf.customers_per_district)) in
        C.get client ctx (k_idx_last_name c_w c_d last) (fun ctx idx ->
            let c = if Row.is_absent idx then 1 else Row.field_int idx 0 in
            k ctx c)
      else k ctx (pick_customer conf rng)
    in
    C.begin_ client (fun ctx ->
        C.get_for_update client ctx (k_warehouse w) (fun ctx wrow ->
            let wrow = Row.decode wrow in
            let ctx =
              C.put client ctx (k_warehouse w) (Row.encode (Row.add_int wrow w_ytd amount))
            in
            C.get_for_update client ctx (k_district w d) (fun ctx drow ->
                let drow = Row.decode drow in
                let ctx =
                  C.put client ctx (k_district w d) (Row.encode (Row.add_int drow d_ytd amount))
                in
                with_customer ctx (fun ctx c ->
                    C.get_for_update client ctx (k_customer c_w c_d c) (fun ctx crow ->
                        let crow = Row.decode crow in
                        let crow = Row.add_int crow c_balance (-amount) in
                        let crow = Row.add_int crow c_ytd_payment amount in
                        let crow = Row.add_int crow c_payment_cnt 1 in
                        let ctx = C.put client ctx (k_customer c_w c_d c) (Row.encode crow) in
                        let ctx =
                          C.put client ctx (k_history w d c uniq) (Dec.to_string amount)
                        in
                        C.commit client ctx done_)))))

  let order_status conf client rng ~home_w done_ =
    let w = home_w in
    let d = 1 + Sim.Rng.int rng conf.districts_per_warehouse in
    let by_name = Sim.Rng.int rng 100 < 60 in
    let with_customer ctx k =
      if by_name then
        let last = last_name (Sim.Rng.int rng (min 1000 conf.customers_per_district)) in
        C.get client ctx (k_idx_last_name w d last) (fun ctx idx ->
            let c = if Row.is_absent idx then 1 else Row.field_int idx 0 in
            k ctx c)
      else k ctx (pick_customer conf rng)
    in
    C.begin_ro client (fun ctx ->
        with_customer ctx (fun ctx c ->
        C.get client ctx (k_customer w d c) (fun ctx _crow ->
            C.get client ctx (k_idx_cust_order w d c) (fun ctx idx ->
                if Row.is_absent idx then C.commit client ctx done_
                else
                  let o = Row.field_int idx 0 in
                  C.get client ctx (k_order w d o) (fun ctx orow ->
                      let ol_cnt = Row.field_int orow o_ol_cnt in
                      let lines = List.init ol_cnt (fun n -> n + 1) in
                      each ctx lines
                        (fun ctx n k ->
                          C.get client ctx (k_order_line w d o n) (fun ctx _ -> k ctx))
                        (fun ctx -> C.commit client ctx done_))))))

  let delivery conf client rng ~home_w done_ =
    let w = home_w in
    let d = 1 + Sim.Rng.int rng conf.districts_per_warehouse in
    let carrier = 1 + Sim.Rng.int rng 10 in
    C.begin_ client (fun ctx ->
        C.get_for_update client ctx (k_deliv_lo w d) (fun ctx lo_row ->
            let lo = Row.field_int lo_row 0 in
            C.get client ctx (k_district w d) (fun ctx drow ->
                let next_o = Row.field_int drow d_next_o_id in
                if lo <= 0 || lo >= next_o then C.commit client ctx done_
                else
                  C.get_for_update client ctx (k_order w d lo) (fun ctx orow ->
                      let orow = Row.decode orow in
                      let c = Row.get_int orow o_c_id in
                      let ol_cnt = Row.get_int orow o_ol_cnt in
                      let ctx =
                        C.put client ctx (k_order w d lo)
                          (Row.encode (Row.set_int orow o_carrier carrier))
                      in
                      let lines = List.init ol_cnt (fun n -> n + 1) in
                      fold_each ctx lines 0
                        (fun ctx total n k ->
                          C.get client ctx (k_order_line w d lo n) (fun ctx ol ->
                              k ctx (total + Row.field_int ol ol_amount)))
                        (fun ctx total ->
                          C.get_for_update client ctx (k_customer w d c) (fun ctx crow ->
                              let crow = Row.decode crow in
                              let crow = Row.add_int crow c_balance total in
                              let crow = Row.add_int crow c_delivery_cnt 1 in
                              let ctx = C.put client ctx (k_customer w d c) (Row.encode crow) in
                              let ctx = C.put client ctx (k_new_order w d lo) "" in
                              let ctx =
                                C.put client ctx (k_deliv_lo w d) (Dec.to_string (lo + 1))
                              in
                              C.commit client ctx done_))))))

  let stock_level conf client rng ~home_w done_ =
    let w = home_w in
    let d = 1 + Sim.Rng.int rng conf.districts_per_warehouse in
    let threshold = 10 + Sim.Rng.int rng 11 in
    C.begin_ro client (fun ctx ->
        C.get client ctx (k_district w d) (fun ctx drow ->
            let next_o = Row.field_int drow d_next_o_id in
            let first = max 1 (next_o - 10) in
            let orders = List.init (max 0 (next_o - first)) (fun i -> first + i) in
            fold_each ctx orders []
              (fun ctx item_ids o k ->
                C.get client ctx (k_order w d o) (fun ctx orow ->
                    let ol_cnt = Row.field_int orow o_ol_cnt in
                    let lines = List.init ol_cnt (fun n -> n + 1) in
                    fold_each ctx lines item_ids
                      (fun ctx item_ids n k' ->
                        C.get client ctx (k_order_line w d o n) (fun ctx ol ->
                            let i = Row.field_int ol ol_i_id in
                            k' ctx (if i > 0 then i :: item_ids else item_ids)))
                      k))
              (fun ctx item_ids ->
                let items = List.sort_uniq compare item_ids in
                fold_each ctx items 0
                  (fun ctx low i k ->
                    C.get client ctx (k_stock w i) (fun ctx srow ->
                        let low' =
                          if Row.field_int srow s_quantity < threshold then low + 1
                          else low
                        in
                        k ctx low'))
                  (fun ctx _low -> C.commit client ctx done_))))

  let run conf client rng ~home_w kind done_ =
    let once = ref false in
    let done_ o =
      (* Defensive: the protocol layers promise exactly-once completion;
         enforce it at the workload boundary. *)
      if not !once then begin
        once := true;
        done_ o
      end
    in
    match kind with
    | New_order -> new_order conf client rng ~home_w done_
    | Payment -> payment conf client rng ~home_w done_
    | Delivery -> delivery conf client rng ~home_w done_
    | Order_status -> order_status conf client rng ~home_w done_
    | Stock_level -> stock_level conf client rng ~home_w done_
end
