(** Per-key multi-version record — the [vstore] entry of Figure 5.

    Tracks, for one key:
    - {b uncommitted writes}: eagerly visible values, one per transaction
      version (re-execution may overwrite the value for a version);
    - {b uncommitted reads}: which executing transaction observed what,
      and the most recent reply sent for each read (for read-miss
      detection when later writes arrive);
    - {b prepared} reads/writes: tentatively validated executions;
    - {b committed} reads/writes: durable state used to validate future
      conflicting transactions until garbage collection.

    All mutation happens from a replica's message handlers, which the
    simulator runs atomically — the multi-threaded locking of the real
    implementation is implicit.

    A fresh record is one small block: the tables of uncommitted,
    prepared and committed reads and of prepared writes are each
    allocated by their first insert, so the many keys a run never reads
    or prepares cost no tables.  Until then every query behaves as on
    an empty table, and afterwards a table iterates in the same order
    as one built with the record. *)

module Version = Cc_types.Version

type reply = { r_ver : Version.t; r_val : string }
(** The write (version and value) most recently replied for a read. *)

type read = {
  reader : Version.t;  (** the reading transaction *)
  coord : int;  (** network node to notify when the read misses a write *)
  mutable last : reply;
}

type t

val create : unit -> t

(** {1 Reading} *)

val latest_committed_before : t -> Version.t -> reply
(** Like {!latest_before} but restricted to committed writes (used when
    eager write visibility is disabled — ablation). *)

val latest_before : t -> Version.t -> reply
(** Visible write (committed or uncommitted) with the largest version
    strictly smaller than the argument; [{ r_ver = Version.zero; r_val =
    "" }] if the key has no visible version below it. *)

val add_read : t -> reader:Version.t -> coord:int -> reply -> unit
(** Register (or refresh) the uncommitted read of [reader]. *)

val find_read : t -> Version.t -> read option

(** {1 Writing} *)

val add_write : t -> ver:Version.t -> string -> read list
(** Record an (eagerly visible) uncommitted write and return the reads
    that {e missed} it: reads by transactions above [ver] whose last
    reply was below [ver], or exactly [ver] with a different value
    (§4.2, Put).  The caller must send corrected [GetReply]s and update
    each returned read's [last] field. *)

(** {1 Validation support (§4.2, Prepare checks)} *)

type missed_write =
  | No_miss
  | Missed_uncommitted of reply
  | Missed_committed of reply

val write_missed_by_read : t -> reader:Version.t -> r_ver:Version.t -> missed_write
(** Check 1: is there a write [w] with [r_ver < w < reader]?  Returns the
    {e latest} such write, preferring to report a committed miss (which
    forces Abandon-Final) over an uncommitted one. *)

val committed_read_missing_write : t -> w_ver:Version.t -> bool
(** Check 2a: some committed transaction read below [w_ver] but is
    ordered above it. *)

val prepared_read_missing_write : t -> w_ver:Version.t -> bool
(** Check 2b: same for a tentatively prepared transaction (excluding
    [w_ver] itself). *)

val committed_value : t -> Version.t -> string option
(** Check 3 (dirty reads): the committed value installed at exactly the
    given version, if any. *)

val newest_committed : t -> Version.t option
(** Version of the key's current committed value — the one write
    {!gc_below} retains even below the truncation watermark. *)

(** {1 Prepare / decide transitions} *)

val prepare_read : t -> reader:Version.t -> eid:int -> r_ver:Version.t -> unit

val prepare_write : t -> ver:Version.t -> eid:int -> unit

val unprepare : t -> ver:Version.t -> eid:int -> unit
(** Drop prepared read/write entries for one execution (Abandon). *)

val unprepare_all : t -> ver:Version.t -> unit
(** Drop prepared entries for every execution of a transaction. *)

val commit_write : t -> ver:Version.t -> string -> unit
(** Install a committed version; clears the uncommitted write and any
    prepared write entries for [ver]. *)

val commit_read : t -> reader:Version.t -> r_ver:Version.t -> unit
(** Move a read to the committed set; clears uncommitted/prepared read
    state for [reader]. *)

val abort_writes : t -> ver:Version.t -> unit
(** Remove the uncommitted write (transaction aborted). *)

val remove_read : t -> Version.t -> unit
(** Drop the uncommitted read entry (its transaction reached a
    decision). *)

val reads_missing_version : t -> ver:Version.t -> string -> read list
(** Uncommitted reads above [ver] whose last reply predates it (or saw a
    different value for it) — the reads to notify when [ver]'s write
    becomes relevant (on Put under eager visibility; on commit
    otherwise). *)

val reads_observing : t -> Version.t -> read list
(** Uncommitted reads whose last reply came from the given version —
    the reads to refresh when that version aborts or commits a
    different value. *)

(** {1 Garbage collection} *)

val gc_below : t -> Version.t -> unit
(** Drop committed reads, and all but the newest committed write, below
    the truncation watermark. *)

val stats : t -> int * int * int * int
(** (uncommitted reads, uncommitted writes, prepared entries, committed
    writes) — for GC tests. *)

(** {1 State transfer (amnesia-crash recovery)} *)

val committed_writes_list : t -> (Version.t * string) list
(** All committed (version, value) pairs in version order — the durable
    per-key state shipped to a restarted replica during catch-up. *)

val committed_reads_list : t -> (Version.t * Version.t) list
(** All committed (reader, read-version) pairs, sorted — needed so a
    restarted replica can still run validation check 2a. *)
