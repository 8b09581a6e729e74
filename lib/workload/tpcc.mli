(** TPC-C workload (Table 3a) in continuation-passing style.

    Implements the five transaction types over nine tables plus the two
    materialised secondary indices the paper describes (orders by
    customer, oldest undelivered order per district), with the standard
    mix: New-Order 44 %, Payment 44 %, Delivery 4 %, Order-Status 4 %,
    Stock-Level 4 %.  Payment updates the warehouse year-to-date total —
    the contention hotspot §2.1.1 analyses.

    Scale is configurable; contention ratios follow the spec (Payment
    picks a remote warehouse 15 % of the time, New-Order a remote supply
    warehouse per item 1 % of the time). *)

type conf = {
  n_warehouses : int;
  districts_per_warehouse : int;
  customers_per_district : int;
  n_items : int;
  initial_orders_per_district : int;
  max_items_per_order : int;
}

val default_conf : conf
(** Scaled-down defaults (see DESIGN.md): 10 districts, 30 customers per
    district, 100 items, 10 initial orders per district. *)

val conf_with_warehouses : int -> conf

type kind = New_order | Payment | Delivery | Order_status | Stock_level

val kind_name : kind -> string

val mix : (kind * int) list
(** Percentage mix of Table 3a. *)

val pick_kind : Sim.Rng.t -> kind

val is_read_only : kind -> bool

val initial_data : conf -> (string * string) list
(** Rows to load into every replica before the run. *)

val partition_of_key : home_group:int -> n_groups:int -> string -> int
(** Partition by warehouse id; the read-only items table is treated as
    replicated by mapping it to the client's home group (as the paper
    does). *)

(** {1 Row keys}

    One key per row, [prefix:id:...]; {!partition_of_key} reads the
    warehouse id back out of them. *)

val k_warehouse : int -> string
val k_district : int -> int -> string
val k_customer : int -> int -> int -> string
val k_item : int -> string
val k_stock : int -> int -> string
val k_order : int -> int -> int -> string
val k_new_order : int -> int -> int -> string
val k_order_line : int -> int -> int -> int -> string
val k_history : int -> int -> int -> int -> string
val k_idx_cust_order : int -> int -> int -> string
val k_deliv_lo : int -> int -> string
val k_idx_last_name : int -> int -> string -> string

val distinct_items : conf -> Sim.Rng.t -> int -> int list
(** [distinct_items conf rng n] draws [min n conf.n_items] distinct item
    ids (NURand, clause 2.1.6) for one New-Order, newest first. *)

(** The workload instantiated over any of the four systems. *)
module Make (C : Cc_types.Kv_api.S) : sig
  val run :
    conf ->
    C.t ->
    Sim.Rng.t ->
    home_w:int ->
    kind ->
    (Cc_types.Outcome.t -> unit) ->
    unit
  (** Execute one transaction of the given kind against the client;
      the continuation receives the outcome (exactly once). *)
end
