(** One observation stream.

    A bus carries a run's five recorders — trace {!Sink}, {!Profile},
    {!Monitor}, {!Flight} recorder and {!Lineage} — each enabled or not.
    Protocol code emits each fact once, as one typed {!event}, and
    {!emit} hands it to every recorder that wants it.  Events carry
    unrendered values ([(ts, id)] version pairs, typed abort reasons,
    constant strings); only the trace subscriber formats them, so a run
    without a sink never formats a version.

    The null bus costs one branch per emission site: guard event
    construction with {!on}, and {!State} transitions with
    {!monitoring}, since some of them walk a replica's whole store. *)

type ver = int * int
(** [Cc_types.Version.to_pair] of a transaction version. *)

type event =
  | Begin of { ver : ver; ro : bool }
      (** [ro] tags the trace instant (Spanner's snapshot reads) *)
  | Read of { ver : ver; key : string; from : ver; eid : int; sent_us : int }
      (** a read sent at [sent_us] returned the version [from] wrote *)
  | Phase of { ver : ver; name : string; start_us : int; eid : int option }
      (** a client phase segment begun at [start_us] closed; [eid] on
          stacks with execution ids *)
  | Supersede of { ver : ver; eid : int }
      (** execution [eid] is about to be re-executed: the trace's flow
          arrow leaves it here *)
  | Reexec of {
      ver : ver;
      eid : int;  (** the new execution *)
      from_read : int;
      key : string;
      trigger : Lineage.trigger;
      aggressor : ver;
      from : ver;  (** the corrected read's version *)
    }
  | Decide of { ver : ver; eid : int; decision : string }
  | Finish of {
      ver : ver;
      start_us : int;
      abort : Abort_reason.t option;  (** [None]: committed *)
      reexecs : int option;  (** on stacks that re-execute *)
      work_us : int;
      final_eid : int;
      span : bool;  (** [false]: no [txn] span (a TAPIR or Spanner user abort) *)
    }
  | Blame of {
      ver : ver;
      key : string;
      conflict : bool;  (** counts as a conflict on [key] in the profile *)
      abort_key : bool;  (** counts as an abort blame on [key] *)
      lineage : (ver * string) option;  (** aggressor and reason to record *)
    }  (** a replica saw contention on [key] while serving [ver] *)
  | Busy of { kind : string; ver : ver option; eid : int; cost_us : int }
      (** a CPU job completed ({!Profile.note_busy}) *)
  | Kill of { replica : string }
  | State of Monitor.transition

type t

val null : unit -> t
(** The bus of the calling domain's disabled recorders. *)

val create :
  ?sink:Sink.t ->
  ?profile:Profile.t ->
  ?monitor:Monitor.t ->
  ?flight_ring:Flight.t ->
  ?lineage_log:Lineage.t ->
  unit ->
  t
(** Omitted recorders are the calling domain's disabled ones. *)

val on : t -> bool
(** The sink, the profiler or the lineage recorder is enabled. *)

val monitoring : t -> bool
val profiling : t -> bool
val sink : t -> Sink.t
val profile : t -> Profile.t
val monitor : t -> Monitor.t
val flight_ring : t -> Flight.t
val lineage_log : t -> Lineage.t

val emit : t -> ts:int -> pid:int -> event -> unit
(** Hand one event, at virtual time [ts] on node [pid], to every
    enabled recorder that wants it.  The flight recorder rings the
    sink's entries in the same order. *)
