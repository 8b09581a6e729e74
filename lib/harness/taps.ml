(* Read-only observer taps on one run.  None of them draws randomness
   or changes scheduling, so a seeded run stays byte-identical with any
   of them attached. *)

module Engine = Sim.Engine

(* --- Metrics sampling ----------------------------------------------------

   A virtual-time ticker samples every replica slot at a fixed interval.
   Ticker events mutate no protocol state, so enabling metrics never
   perturbs the simulated history.  Nothing is scheduled at all on a
   disabled sink. *)

let metrics_interval_us = 10_000

(* Returns a [finish] closure the runner calls after [Engine.run_until]:
   when the horizon is not a multiple of the sampling interval the last
   ticker fires short of it, so the final partial window would otherwise
   go unrecorded.  [finish] closes the series with one sample pinned at
   the horizon (and is a no-op when a tick already landed there). *)
let install_metrics ~engine ~obs ~horizon ~sample =
  if Obs.Sink.enabled obs then begin
    let last = ref (-1) in
    let rec tick () =
      last := Engine.now engine;
      sample ~now:(Engine.now engine);
      if Engine.now engine + metrics_interval_us <= horizon then
        ignore
          (Engine.schedule engine ~kind:Engine.Ticker
             ~after:metrics_interval_us tick)
    in
    ignore
      (Engine.schedule engine ~kind:Engine.Ticker ~after:metrics_interval_us
         tick);
    fun () -> if !last <> horizon then sample ~now:horizon
  end
  else fun () -> ()

(* Busy fraction over one sampling interval from a monotone busy-µs
   counter; clamped at 0 because [Cpu.reset_stats] at the warm-up
   boundary rewinds the counter once. *)
let busy_frac prev ~slot ~cores ~busy_us =
  let d = max 0 (busy_us - prev.(slot)) in
  prev.(slot) <- busy_us;
  min 1.0 (float_of_int d /. float_of_int (metrics_interval_us * max 1 cores))

(* Flight-recorder taps: read-only observers on the engine dispatcher,
   the network (sends with drop flags, handler deliveries) and the trace
   sink (span openings).  All three draw no randomness and change no
   scheduling, so a seeded run stays byte-identical with the recorder
   attached. *)
let attach_flight ~engine ~net ~obs ~flight ~label =
  if Obs.Flight.enabled flight then begin
    Engine.set_observer engine (fun ~ts kind ->
        let kind =
          match kind with
          | Engine.Timer -> "timer"
          | Engine.Delivery -> "delivery"
          | Engine.Ticker -> "ticker"
        in
        Obs.Flight.record flight (Obs.Flight.Engine_ev { fl_ts = ts; kind }));
    Simnet.Net.set_observer net (function
      | Simnet.Net.Sent { ne_ts; ne_src; ne_dst; ne_msg; ne_dropped } ->
        Obs.Flight.record flight
          (Obs.Flight.Send
             { fl_ts = ne_ts; src = ne_src; dst = ne_dst; kind = label ne_msg;
               dropped = ne_dropped })
      | Simnet.Net.Delivered { ne_ts; ne_src; ne_dst; ne_msg; ne_send_us } ->
        Obs.Flight.record flight
          (Obs.Flight.Deliver
             { fl_ts = ne_ts; src = ne_src; dst = ne_dst; kind = label ne_msg;
               send_us = ne_send_us }));
    Obs.Sink.set_observer obs (fun (e : Obs.Sink.event) ->
        Obs.Flight.record flight
          (Obs.Flight.Span
             { fl_ts = e.ev_ts; name = e.ev_name; cat = e.ev_cat;
               pid = e.ev_pid; dur = e.ev_dur }))
  end

let events_of_engine engine =
  let k = Engine.events_by_kind engine in
  {
    Stats.ev_timers = k.Engine.k_timer;
    ev_deliveries = k.Engine.k_delivery;
    ev_tickers = k.Engine.k_ticker;
  }

(* Close an engine-performance probe over a finished run: the engine's
   deterministic counters plus the probe's wall/GC deltas. *)
let engstat_of_engine probe ~label engine =
  let k = Engine.events_by_kind engine in
  let h = Engine.heap_stats engine in
  Obs.Engstat.finish probe ~label ~timers:k.Engine.k_timer
    ~deliveries:k.Engine.k_delivery ~tickers:k.Engine.k_ticker
    ~heap:
      {
        Obs.Engstat.hp_pushes = h.Engine.hs_pushes;
        hp_pops = h.Engine.hs_pops;
        hp_cancels = h.Engine.hs_cancels;
        hp_ghost_drains = h.Engine.hs_ghost_drains;
        hp_max_live = h.Engine.hs_max_live;
        hp_max_raw = h.Engine.hs_max_raw;
      }
