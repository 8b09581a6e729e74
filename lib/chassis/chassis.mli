(** Client chassis shared by the Morty, TAPIR and Spanner coordinators.

    The three clients drive closed-loop CPS transactions through the
    same machinery; this module holds it once:

    - per-client state: node, bus, [on_finish], the closest replica of
      each group, the profiler cells and the message handler that feeds
      them;
    - per-transaction {!life}: start time, the open phase segment and
      its accumulators, [Begin]/[Phase]/[Finish] emission and the
      history record;
    - {!arm}, a timer that holds a transaction's id rather than the
      transaction, so a queued timer keeps nothing it reaches alive;
    - the follower-read redirect policy: attempt cap, backoff, abort
      classification, per-group rotation and the seq-ordered release of
      pending reads when a transaction is doomed;
    - TAPIR's and Spanner's participant set and final-value write dedup.

    Everything that differs — Morty's slots and re-execution, TAPIR's
    snapshot pin, Spanner's wound-wait and commit-wait, every vote and
    quorum rule — stays in the stacks; nothing here matches on which
    stack calls it. *)

module Version = Cc_types.Version
module Outcome = Cc_types.Outcome

(** {1 Transaction life} *)

type seg =
  | Exec
  | Reexec  (** an execute segment opened by a re-execution *)
  | Prep
  | Fin  (** finalize; Spanner's TrueTime commit-wait *)

type life = {
  ver : Version.t;  (** the begin version: the key of every bus event *)
  start_us : int;
  mutable seg : seg;  (** the open segment *)
  mutable seg_start_us : int;
  mutable exec_us : int;
  mutable prep_us : int;
  mutable fin_us : int;
  mutable finished : bool;  (** finished, retired or discarded *)
  mutable on_outcome : Outcome.t -> unit;
      (** the commit continuation; a no-op until [commit] sets it *)
}

type 'x history = {
  reads : 'x -> (string * Version.t) list;
  writes : 'x -> string list;
  ro : 'x -> bool;
  staleness_us : 'x -> int;
}
(** How a stack reads the history fields of its transaction ['x]: the
    record is built only when an [on_finish] hook is attached. *)

(** {1 Per-client state} *)

type ('x, 'm) t = {
  engine : Sim.Engine.t;
  net : 'm Simnet.Net.t;
  node : Simnet.Net.node;
  obs : Obs.Bus.t;
  on_finish : (Cc_types.Txn_record.t -> unit) option;
  history : 'x history;
  closest_ix : int array;
      (** per group: index of the first member in the client's region,
          else 0 *)
  mutable cur : life option;
      (** the transaction the closed-loop driver is running *)
  mutable comps : int array;  (** its latency-component cells *)
  mutable last_ev : int;  (** end of the last attributed wait *)
}

val create :
  engine:Sim.Engine.t ->
  net:'m Simnet.Net.t ->
  region:Simnet.Latency.region ->
  groups:int array array ->
  obs:Obs.Bus.t ->
  on_finish:(Cc_types.Txn_record.t -> unit) option ->
  'x history ->
  ('x, 'm) t
(** Register a client node in [region]; [groups.(g)] lists group [g]'s
    replica nodes (Morty: one group of all replicas). *)

val serve : ('x, 'm) t -> (src:Simnet.Net.node -> 'm -> unit) -> unit
(** Install the node's message handler, charging each arrival to the
    profiler first when one is attached. *)

val emit : ('x, 'm) t -> Obs.Bus.event -> unit
val send : ('x, 'm) t -> Simnet.Net.node -> 'm -> unit

val begin_ : ('x, 'm) t -> Version.t -> ro:bool -> life
(** Open a transaction's life in [Exec], make it the profiled one and
    emit [Begin]. *)

val ended : life -> bool

val switch : ('x, 'm) t -> life -> eid:int option -> seg -> unit
(** Close the open segment — credit its duration, emit its [Phase]
    (with [eid], the execution, where the stack numbers them) — and
    open the next one. *)

val finish :
  ('x, 'm) t -> life -> 'x -> Outcome.t -> ver:Version.t ->
  eid:int option -> reexecs:int option -> unit
(** End a live transaction: tail wait, last [Phase], [Finish] (with the
    final execution and the re-execution count where the stack counts
    them), the history record (labelled [ver]) when [on_finish] is set,
    then the outcome continuation. *)

val retire : ('x, 'm) t -> life -> unit
(** A user abort before commit: as {!finish} with a [User_abort]
    outcome and no execution count, but without the history record and
    the outcome continuation (TAPIR, Spanner). *)

val discard : ('x, 'm) t -> life -> unit
(** End a life silently: no wait, no event (Morty's re-pin replays the
    body under a fresh one). *)

(** {1 Timers} *)

val arm :
  ('x, 'm) t -> ('k, 'v) Hashtbl.t -> after:int -> 'k -> ('v -> unit) ->
  Sim.Engine.timer
(** [arm c tbl ~after id f] calls [f] on [id]'s entry [after] us from
    now, if [id] is still in [tbl] then.  The event captures [id], not
    the entry, so a finished transaction is collectable while the timer
    is queued. *)

(** {1 Follower-read redirects} *)

val attempt_cap : replicas:int -> int
(** [max (2 * replicas) 6]. *)

val backoff : Sim.Rng.t -> attempt:int -> int
(** Full jitter, 5 ms base, 160 ms cap: one draw. *)

val exhausted : saw_stale:bool -> Obs.Abort_reason.t
(** The abort once attempts run out: [Stale_replica] if some replica
    answered too stale, else [Timeout]. *)

type 'c pend = {
  pd_sent : int;
  pd_key : string;
  mutable pd_tries : int;  (** redirects so far (follower reads) *)
  pd_cont : 'c -> string -> unit;
}
(** A read awaiting its reply, keyed by its [seq] in the transaction. *)

type follower = {
  mutable snap : int;  (** snapshot timestamp; TAPIR: [-1] until pinned *)
  mutable stale_us : int;  (** clock − snapshot at pin time *)
  mutable saw_stale : bool;
  mutable doomed : Obs.Abort_reason.t option;
      (** set when redirects are exhausted; reads then resolve at once
          so the body still reaches [commit], which reports the abort *)
  rot : int array;  (** per-group replica-rotation offset *)
}
(** A follower-read transaction's redirect state (TAPIR, Spanner). *)

val follower : ('x, 'm) t -> snap:int -> follower

val rotated : ('x, 'm) t -> follower -> g:int -> n:int -> int
(** Index of the replica of group [g] (of [n]) that reads go to now:
    the closest one, advanced by the rotation. *)

val redirect :
  follower -> Sim.Rng.t -> replicas:int -> g:int -> 'c pend -> int option
(** Count one more attempt at a pending read of group [g]: [None] once
    the attempts are spent, else rotate [g] and return the backoff to
    wait before resending. *)

val doom :
  follower -> Obs.Abort_reason.t -> (int * 'c pend) list -> ('c pend -> unit) ->
  unit
(** Mark the transaction doomed and release the given pending reads in
    [seq] order. *)

(** {1 Read/write buffers (TAPIR, Spanner)} *)

val participants :
  (string -> int) -> (string * 'a) list -> (string * 'b) list -> int list
(** The groups of the read and written keys. *)

val final_writes : (string * string) list -> (string * string) list
(** Each key's first occurrence in a reverse-program-order write list:
    its final value, in that order. *)
