(** Direct serialization graph and serializability oracle.

    Builds DSG(H) from a {!History.t} per Definitions A.1–A.4 and checks
    the conditions of Definition A.10: no aborted reads (G1a), no
    intermediate reads (G1b, precluded by construction since histories
    record final writes only), and acyclicity.  Used by the test suites
    to verify that every history produced by Morty and the baselines is
    serializable (Theorem 4.1). *)

type edge_kind =
  | Wr  (** write–read: reader directly read-depends on writer *)
  | Ww  (** write–write: consecutive installers of some key *)
  | Rw  (** read–write: anti-dependency *)

type edge = {
  src : Cc_types.Version.t;
  dst : Cc_types.Version.t;
  kind : edge_kind;
  key : string;
}

type violation =
  | Aborted_read of { reader : Cc_types.Version.t; writer : Cc_types.Version.t; key : string }
      (** G1a: a committed transaction read a version written by an
          aborted (or unknown, non-initial) transaction. *)
  | Cycle of edge list  (** G1c/G2: a cycle in DSG(H). *)

val edges : History.t -> edge list
(** All conflict edges between committed transactions.  One pass indexes
    each key's committed installers, so the cost is O(reads + writes)
    hash operations (plus listing the committed transactions).  The
    order of the list is stable: a function of the history alone. *)

val check : History.t -> (unit, violation) result
(** [Ok ()] iff the history is serializable in Adya's sense.  The
    edges cost as in {!edges}; the G1a test looks up each read's writer
    (O(log n) each) and the cycle search is a DFS over the edges.  The
    DFS visits committed transactions in version order and follows
    each node's edges in a fixed order, so a violation reports the
    same cycle on every run. *)

val pp_violation : Format.formatter -> violation -> unit

val is_serializable : History.t -> bool
