(** Per-transaction history record, one per finished attempt.

    Every system's client hands one to its [on_finish] hook, at the
    virtual instant the attempt finishes and before the outcome
    continuation runs.  The harness maps it onto [Adya.History.txn] for
    the serializability audit and folds its timings into the phase and
    availability statistics. *)

type t = {
  h_ver : Version.t;
      (** the transaction's version.  Spanner: the commit version for
          committed read-write transactions; for read-only and aborted
          ones a unique label [(begin_ts, -(node+1))] in an id-space
          disjoint from commit versions *)
  h_committed : bool;
  h_abort : Obs.Abort_reason.t option;  (** classified cause on abort *)
  h_reads : (string * Version.t) list;
  h_writes : string list;
  h_start_us : int;
  h_end_us : int;
  h_exec_us : int;  (** virtual time spent executing (incl. re-execution) *)
  h_prepare_us : int;  (** virtual time spent in Prepare rounds *)
  h_finalize_us : int;
      (** virtual time spent in Finalize rounds (Spanner: TrueTime
          commit-wait) *)
  h_ro : bool;  (** ran on the follower-read (snapshot) path *)
  h_staleness_us : int;
      (** snapshot staleness at pin time (clock − snapshot); [0] for
          read-write transactions and unpinned aborts *)
}
