(* The trace sink: span events from [Bus] and metrics samples from the
   harness ticker.  Everything is keyed off virtual time and the run
   seed, never wall-clock time or fresh randomness, so two runs with the
   same seed produce byte-identical output. *)

type arg = I of int | S of string | F of float

type phase = Complete | Instant | Flow_start of int | Flow_finish of int

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ph : phase;
  ev_ts : int; (* virtual µs *)
  ev_dur : int; (* µs; 0 for instants *)
  ev_pid : int; (* node id of the emitting client/replica *)
  ev_args : (string * arg) list;
}

type sample = {
  sm_ts : int;
  sm_replica : string;
  sm_cpu_busy : float;
  sm_queue : int;
  sm_records : int;
  sm_versions : int;
  sm_wmark_lag : int;
}

type t = {
  enabled : bool;
  seed : int;
  mutable events : event list; (* newest first *)
  mutable n_events : int;
  mutable samples : sample list; (* newest first *)
}

(* One disabled sink per domain: a top-level singleton would be mutable
   state shared across the orchestrator's worker domains, safe only as
   long as every write site remembers its [enabled] guard.  DLS makes
   the safety structural. *)
let null_key =
  Domain.DLS.new_key (fun () ->
      { enabled = false; seed = 0; events = []; n_events = 0; samples = [] })

let null () = Domain.DLS.get null_key

let create ~seed =
  { enabled = true; seed; events = []; n_events = 0; samples = [] }

let enabled t = t.enabled
let seed t = t.seed

let record t e =
  if t.enabled then begin
    t.events <- e :: t.events;
    t.n_events <- t.n_events + 1
  end

let sample t s = if t.enabled then t.samples <- s :: t.samples

(* Emission order is already deterministic (single-threaded sim), so a
   stable reversal is all we need for chronological output. *)
let events t = List.rev t.events
let samples t = List.rev t.samples
let event_count t = t.n_events
