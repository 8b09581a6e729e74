(** Adya-style transactional histories (§2 and Appendix A of the paper).

    A history records, for each transaction, the versions it read (naming
    the writer) and the keys it wrote, together with the outcome.  The
    per-key version order is derived from the total order on transaction
    versions, exactly as Morty defines it (Lemma B.4, step ⟨1⟩2):
    [x_i << x_j  <=>  ver(T_i) < ver(T_j)].

    Histories are the input to {!Dsg}, the serializability oracle used by
    the protocol test suites. *)

type txn = {
  ver : Cc_types.Version.t;  (** total-order position (node of the DSG) *)
  reads : (string * Cc_types.Version.t) list;  (** (key, writer version) *)
  writes : string list;  (** keys installed *)
  committed : bool;
  start_us : int;  (** first operation time (diagnostics, windows) *)
  commit_us : int;  (** commit event time; [-1] if aborted *)
}

type t

val empty : t

val add : t -> txn -> t
(** Add a transaction.  Raises [Invalid_argument] on a duplicate
    version. *)

val of_list : txn list -> t

val txns : t -> txn list
(** All recorded transactions, in version order. *)

val committed : t -> txn list
(** Committed transactions only, in version order.  O(n). *)

val find : t -> Cc_types.Version.t -> txn option

val version_order : t -> string -> Cc_types.Version.t list
(** Committed installers of a key, in version order (excluding the
    initial version [Version.zero], which implicitly precedes all).
    Scans the whole history: O(n) transactions and their [writes] per
    call.  For every key at once, {!Dsg.edges} indexes them in one
    pass. *)

val pp : Format.formatter -> t -> unit
