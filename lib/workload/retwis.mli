(** Retwis workload (Table 3b): a social-network benchmark with short
    read-write transactions and configurable contention.

    As in TAPIR's benchmark (which the paper reuses), each transaction
    touches keys drawn from a Zipfian distribution over the keyspace:

    - Add-User (5 %): 1 read–modify–write + 1 blind write;
    - Follow/Unfollow (15 %): 2 read–modify–writes;
    - Post-Tweet (30 %): 3 read–modify-writes + 2 blind writes;
    - Load-Timeline (50 %): 1–10 reads, read-only.

    Every read–modify–write increments an integer counter, so any lost
    update is detectable by the consistency checks in the tests. *)

type conf = {
  n_keys : int;
  theta : float;  (** Zipf parameter; 0.9 in §5.1.2, swept in §5.3 *)
}

val default_conf : conf

type kind = Add_user | Follow | Post_tweet | Load_timeline

val kind_name : kind -> string

val mix : (kind * int) list

val pick_kind : Sim.Rng.t -> kind

val is_read_only : kind -> bool

val key : int -> string

val initial_data : conf -> (string * string) list
(** Every key initialised to "0". *)

val sampler : conf -> Sim.Dist.zipf

val partition_of_key : n_groups:int -> string -> int

val pick_keys : Sim.Rng.t -> Sim.Dist.zipf -> int -> string list
(** [pick_keys rng zipf n] draws up to [n] distinct Zipf-distributed
    keys, newest first, giving up after [100 n] draws. *)

module Make (C : Cc_types.Kv_api.S) : sig
  val run :
    C.t ->
    Sim.Rng.t ->
    Sim.Dist.zipf ->
    kind ->
    (Cc_types.Outcome.t -> unit) ->
    unit
end
