(** Wide-area latency model reproducing Table 2 of the paper.

    Three network setups are evaluated (§5, "Network Setup"):
    - {b REG}: replicas in different availability zones of one region,
      10 ms inter-replica RTT;
    - {b CON}: US-based AWS regions (us-east-1, us-west-1, us-west-2);
    - {b GLO}: US + Europe (us-east-1, us-west-1, eu-west-1). *)

type region =
  | Us_east_1
  | Us_west_1
  | Us_west_2
  | Eu_west_1
  | Az of int  (** Availability zone [i] within a single region (REG). *)

type setup = Reg | Con | Glo

val equal_region : region -> region -> bool
(** Structural equality, without a polymorphic compare. *)

val region_name : region -> string

val setup_name : setup -> string

val setup_of_string : string -> setup option

val regions : setup -> region array
(** The three replica sites used by a setup, in replica-index order. *)

val rtt_us : setup -> region -> region -> int
(** Round-trip time in microseconds between two sites, per Table 2
    (10 ms for any distinct pair under [Reg]; 0 between a site and
    itself). *)

val one_way_us : setup -> region -> region -> int
(** Half the RTT: the message propagation delay used by the simulator. *)

val table2 : (string * (string * int) list) list
(** The cross-region RTT matrix exactly as printed in Table 2
    (milliseconds), for the [table2] bench target. *)
