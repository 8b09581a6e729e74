(* Simulator self-performance record: where the *simulator's own* wall
   time and memory go, as opposed to the simulated systems' virtual
   time (that is [Profile]'s job).

   The record is split in two on purpose:

   - the {e deterministic} section (event and heap-operation counters)
     is a pure function of the simulated schedule, so it must be
     byte-identical across hosts, runs and [--jobs] values — the smoke
     aliases diff it;
   - the {e host} section (wall nanoseconds, GC deltas, domain
     utilization) depends on the machine and the OS scheduler, so it is
     only ever tolerance-checked (the run ledger's host section) or
     reported on stderr.

   Capturing a record costs two [Gc.quick_stat] calls and two clock
   reads per run — nothing on the simulation hot path. *)

type heap = {
  hp_pushes : int;
  hp_pops : int;
  hp_cancels : int;
  hp_ghost_drains : int;
  hp_max_live : int;
  hp_max_raw : int;
}

let zero_heap =
  {
    hp_pushes = 0;
    hp_pops = 0;
    hp_cancels = 0;
    hp_ghost_drains = 0;
    hp_max_live = 0;
    hp_max_raw = 0;
  }

type det = {
  de_runs : int;
  de_events : int;
  de_timers : int;
  de_deliveries : int;
  de_tickers : int;
  de_heap : heap;
}

type gc = {
  gc_minor_words : float;
  gc_major_words : float;
  gc_promoted_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
  gc_top_heap_words : int;
}

type domain_load = {
  dl_domain : int;
  dl_tasks : int;
  dl_steals : int;
  dl_busy_ns : int;
  dl_idle_ns : int;
}

type host = {
  ho_wall_ns : int;
  ho_gc : gc;
  ho_domains : domain_load list;
  ho_merge_high_water : int;
}

type t = { es_label : string; es_det : det; es_host : host }

let zero_gc =
  {
    gc_minor_words = 0.;
    gc_major_words = 0.;
    gc_promoted_words = 0.;
    gc_minor_collections = 0;
    gc_major_collections = 0;
    gc_top_heap_words = 0;
  }

let zero ~label =
  {
    es_label = label;
    es_det =
      {
        de_runs = 0;
        de_events = 0;
        de_timers = 0;
        de_deliveries = 0;
        de_tickers = 0;
        de_heap = zero_heap;
      };
    es_host =
      { ho_wall_ns = 0; ho_gc = zero_gc; ho_domains = []; ho_merge_high_water = 0 };
  }

(* --- Capture ----------------------------------------------------------- *)

type probe = { pr_ns : int; pr_gc : Gc.stat }

let start () = { pr_ns = Mclock.now_ns (); pr_gc = Gc.quick_stat () }

let finish probe ~label ~timers ~deliveries ~tickers ~heap =
  let wall_ns = Mclock.elapsed_ns probe.pr_ns in
  let g = Gc.quick_stat () in
  let g0 = probe.pr_gc in
  {
    es_label = label;
    es_det =
      {
        de_runs = 1;
        de_events = timers + deliveries + tickers;
        de_timers = timers;
        de_deliveries = deliveries;
        de_tickers = tickers;
        de_heap = heap;
      };
    es_host =
      {
        ho_wall_ns = wall_ns;
        ho_gc =
          {
            gc_minor_words = g.Gc.minor_words -. g0.Gc.minor_words;
            gc_major_words = g.Gc.major_words -. g0.Gc.major_words;
            gc_promoted_words = g.Gc.promoted_words -. g0.Gc.promoted_words;
            gc_minor_collections = g.Gc.minor_collections - g0.Gc.minor_collections;
            gc_major_collections = g.Gc.major_collections - g0.Gc.major_collections;
            (* A high-water mark, not a delta: the peak major-heap size
               the process has reached so far. *)
            gc_top_heap_words = g.Gc.top_heap_words;
          };
        ho_domains = [];
        ho_merge_high_water = 0;
      };
  }

(* --- Aggregation ------------------------------------------------------- *)

(* Counters and deltas sum; high-water marks take the max.  Wall time
   sums too: for a serial sweep that is total wall, for a parallel one
   it is aggregate per-run wall (CPU-seconds-like), which is what the
   events/sec denominator wants when comparing scheduling efficiency.
   Domain loads concatenate (they are attached once, at sweep level). *)
let add a b =
  let ha = a.es_det.de_heap and hb = b.es_det.de_heap in
  {
    es_label = (if a.es_label = "" then b.es_label else a.es_label);
    es_det =
      {
        de_runs = a.es_det.de_runs + b.es_det.de_runs;
        de_events = a.es_det.de_events + b.es_det.de_events;
        de_timers = a.es_det.de_timers + b.es_det.de_timers;
        de_deliveries = a.es_det.de_deliveries + b.es_det.de_deliveries;
        de_tickers = a.es_det.de_tickers + b.es_det.de_tickers;
        de_heap =
          {
            hp_pushes = ha.hp_pushes + hb.hp_pushes;
            hp_pops = ha.hp_pops + hb.hp_pops;
            hp_cancels = ha.hp_cancels + hb.hp_cancels;
            hp_ghost_drains = ha.hp_ghost_drains + hb.hp_ghost_drains;
            hp_max_live = max ha.hp_max_live hb.hp_max_live;
            hp_max_raw = max ha.hp_max_raw hb.hp_max_raw;
          };
      };
    es_host =
      {
        ho_wall_ns = a.es_host.ho_wall_ns + b.es_host.ho_wall_ns;
        ho_gc =
          {
            gc_minor_words =
              a.es_host.ho_gc.gc_minor_words +. b.es_host.ho_gc.gc_minor_words;
            gc_major_words =
              a.es_host.ho_gc.gc_major_words +. b.es_host.ho_gc.gc_major_words;
            gc_promoted_words =
              a.es_host.ho_gc.gc_promoted_words
              +. b.es_host.ho_gc.gc_promoted_words;
            gc_minor_collections =
              a.es_host.ho_gc.gc_minor_collections
              + b.es_host.ho_gc.gc_minor_collections;
            gc_major_collections =
              a.es_host.ho_gc.gc_major_collections
              + b.es_host.ho_gc.gc_major_collections;
            gc_top_heap_words =
              max a.es_host.ho_gc.gc_top_heap_words
                b.es_host.ho_gc.gc_top_heap_words;
          };
        ho_domains = a.es_host.ho_domains @ b.es_host.ho_domains;
        ho_merge_high_water =
          max a.es_host.ho_merge_high_water b.es_host.ho_merge_high_water;
      };
  }

let sum ~label = function
  | [] -> zero ~label
  | x :: rest ->
    let t = List.fold_left add x rest in
    { t with es_label = label }

let with_domains t ~domains ~merge_high_water =
  {
    t with
    es_host =
      { t.es_host with ho_domains = domains; ho_merge_high_water = merge_high_water };
  }

let relabel t label = { t with es_label = label }

let strip_host t = { t with es_host = (zero ~label:"").es_host }

(* --- Derived ----------------------------------------------------------- *)

let events_per_s t =
  if t.es_host.ho_wall_ns <= 0 then 0.
  else float_of_int t.es_det.de_events /. Mclock.ns_to_s t.es_host.ho_wall_ns

let busy_fraction t =
  match t.es_host.ho_domains with
  | [] -> 0.
  | ds ->
    let busy, total =
      List.fold_left
        (fun (b, tot) d -> (b + d.dl_busy_ns, tot + d.dl_busy_ns + d.dl_idle_ns))
        (0, 0) ds
    in
    if total = 0 then 0. else float_of_int busy /. float_of_int total

(* --- Rendering --------------------------------------------------------- *)

(* Deterministic section only: safe on stdout, byte-identical across
   hosts and --jobs — the @engine-smoke diff surface. *)
let det_line t =
  let h = t.es_det.de_heap in
  Printf.sprintf
    "engine: runs=%d events=%d timers=%d deliveries=%d tickers=%d \
     heap_pushes=%d heap_pops=%d heap_cancels=%d heap_ghosts=%d \
     heap_max_live=%d heap_max_raw=%d"
    t.es_det.de_runs t.es_det.de_events t.es_det.de_timers
    t.es_det.de_deliveries t.es_det.de_tickers h.hp_pushes h.hp_pops
    h.hp_cancels h.hp_ghost_drains h.hp_max_live h.hp_max_raw

(* Host section: wall-clock and GC figures, stderr only. *)
let host_line t =
  let g = t.es_host.ho_gc in
  let base =
    Printf.sprintf
      "engine-host: wall_s=%.3f events_per_s=%.3g gc_minor_mwords=%.2f \
       gc_major_mwords=%.2f minor_gcs=%d major_gcs=%d top_heap_mb=%.1f"
      (Mclock.ns_to_s t.es_host.ho_wall_ns)
      (events_per_s t) (g.gc_minor_words /. 1e6) (g.gc_major_words /. 1e6)
      g.gc_minor_collections g.gc_major_collections
      (float_of_int g.gc_top_heap_words *. 8. /. 1e6)
  in
  match t.es_host.ho_domains with
  | [] -> base
  | ds ->
    Printf.sprintf "%s domains=%d busy_frac=%.2f merge_hwm=%d" base
      (List.length ds) (busy_fraction t) t.es_host.ho_merge_high_water

let to_json t =
  let buf = Buffer.create 512 in
  let h = t.es_det.de_heap and g = t.es_host.ho_gc in
  Json.obj buf (fun () ->
      Json.fld buf true "label";
      Json.str buf t.es_label;
      Json.fld buf false "deterministic";
      Json.obj buf (fun () ->
          Json.fld buf true "runs";
          Json.int buf t.es_det.de_runs;
          Json.fld buf false "events";
          Json.int buf t.es_det.de_events;
          Json.fld buf false "timers";
          Json.int buf t.es_det.de_timers;
          Json.fld buf false "deliveries";
          Json.int buf t.es_det.de_deliveries;
          Json.fld buf false "tickers";
          Json.int buf t.es_det.de_tickers;
          Json.fld buf false "heap";
          Json.obj buf (fun () ->
              Json.fld buf true "pushes";
              Json.int buf h.hp_pushes;
              Json.fld buf false "pops";
              Json.int buf h.hp_pops;
              Json.fld buf false "cancels";
              Json.int buf h.hp_cancels;
              Json.fld buf false "ghost_drains";
              Json.int buf h.hp_ghost_drains;
              Json.fld buf false "max_live";
              Json.int buf h.hp_max_live;
              Json.fld buf false "max_raw";
              Json.int buf h.hp_max_raw));
      Json.fld buf false "host";
      Json.obj buf (fun () ->
          Json.fld buf true "wall_ns";
          Json.int buf t.es_host.ho_wall_ns;
          Json.fld buf false "events_per_s";
          Json.float buf (events_per_s t);
          Json.fld buf false "gc";
          Json.obj buf (fun () ->
              Json.fld buf true "minor_words";
              Json.float buf g.gc_minor_words;
              Json.fld buf false "major_words";
              Json.float buf g.gc_major_words;
              Json.fld buf false "promoted_words";
              Json.float buf g.gc_promoted_words;
              Json.fld buf false "minor_collections";
              Json.int buf g.gc_minor_collections;
              Json.fld buf false "major_collections";
              Json.int buf g.gc_major_collections;
              Json.fld buf false "top_heap_words";
              Json.int buf g.gc_top_heap_words);
          Json.fld buf false "domains";
          Json.arr buf (fun () ->
              Json.sep_iter buf
                (fun d ->
                  Json.obj buf (fun () ->
                      Json.fld buf true "domain";
                      Json.int buf d.dl_domain;
                      Json.fld buf false "tasks";
                      Json.int buf d.dl_tasks;
                      Json.fld buf false "steals";
                      Json.int buf d.dl_steals;
                      Json.fld buf false "busy_ns";
                      Json.int buf d.dl_busy_ns;
                      Json.fld buf false "idle_ns";
                      Json.int buf d.dl_idle_ns))
                t.es_host.ho_domains);
          Json.fld buf false "merge_high_water";
          Json.int buf t.es_host.ho_merge_high_water));
  Buffer.add_char buf '\n';
  Buffer.contents buf
