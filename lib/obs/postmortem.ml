(* Post-mortem bundles.

   When something goes wrong — a monitor violation, an Adya-audit
   failure, or a replica kill — everything needed to diagnose it is
   packaged into one JSON directory:

     manifest.json    reason, evidence pointers, run identity, file list
     violations.json  the violated invariants with their evidence
     snapshots.json   [state_view] of every replica at dump time
     flight.json      the flight recorder's ring buffer
     trace.json       trace slice for the implicated window (Perfetto)
     profile.json     the run's critical-path profile
     metrics.csv      the run's per-replica time series

   [make] is pure (filename → contents pairs, byte-deterministic given
   the run's observers); [write] does the IO, so library code can build
   bundles and only the binaries touch the filesystem. *)

type t = (string * string) list

(* Half-width of the trace slice around the first incident.  Wide
   enough to contain the transactions in flight when things went wrong,
   narrow enough that the slice stays readable in Perfetto. *)
let window_before_us = 50_000
let window_after_us = 10_000

let views_json views =
  let b = Buffer.create 4096 in
  let fld = Json.fld b in
  Json.arr b (fun () ->
      Json.sep_iter b
        (fun (v : Monitor.state_view) ->
          Buffer.add_char b '\n';
          Json.obj b (fun () ->
              fld true "replica";
              Json.str b v.Monitor.v_replica;
              fld false "stopped";
              Json.bool b v.v_stopped;
              fld false "recovering";
              Json.bool b v.v_recovering;
              fld false "watermark";
              (match v.v_watermark with
              | None -> Buffer.add_string b "null"
              | Some (ts, id) ->
                Json.arr b (fun () ->
                    Json.int b ts;
                    Buffer.add_char b ',';
                    Json.int b id));
              fld false "records";
              Json.int b v.v_records;
              fld false "store_keys";
              Json.int b v.v_store_keys;
              fld false "store_versions";
              Json.int b v.v_store_versions;
              fld false "counters";
              Json.obj b (fun () ->
                  List.iteri
                    (fun i (k, n) ->
                      fld (i = 0) k;
                      Json.int b n)
                    v.v_counters)))
        views);
  Buffer.add_char b '\n';
  Buffer.contents b

let violations_json mon =
  let b = Buffer.create 4096 in
  let fld = Json.fld b in
  Json.obj b (fun () ->
      fld true "n_violations";
      Json.int b (Monitor.n_violations mon);
      fld false "n_observed";
      Json.int b (Monitor.n_observed mon);
      fld false "violations";
      Json.arr b (fun () ->
          Json.sep_iter b
            (fun (v : Monitor.violation) ->
              Buffer.add_char b '\n';
              Json.obj b (fun () ->
                  fld true "invariant";
                  Json.str b v.Monitor.vi_invariant;
                  fld false "ts_us";
                  Json.int b v.vi_ts;
                  fld false "where";
                  Json.str b v.vi_where;
                  fld false "detail";
                  Json.str b v.vi_detail))
            (Monitor.violations mon));
      fld false "incidents";
      Json.arr b (fun () ->
          Json.sep_iter b
            (fun (i : Monitor.incident) ->
              Json.obj b (fun () ->
                  fld true "kind";
                  Json.str b i.Monitor.in_kind;
                  fld false "ts_us";
                  Json.int b i.in_ts;
                  fld false "detail";
                  Json.str b i.in_detail))
            (Monitor.incidents mon)));
  Buffer.add_char b '\n';
  Buffer.contents b

let manifest_json ~reason ~detail ~label ~seed ~window files =
  let b = Buffer.create 1024 in
  let fld = Json.fld b in
  Json.obj b (fun () ->
      fld true "reason";
      Json.str b reason;
      fld false "detail";
      Json.str b detail;
      fld false "label";
      Json.str b label;
      fld false "seed";
      Json.int b seed;
      fld false "window_us";
      (match window with
      | None -> Buffer.add_string b "null"
      | Some (t0, t1) ->
        Json.arr b (fun () ->
            Json.int b t0;
            Buffer.add_char b ',';
            Json.int b t1));
      fld false "files";
      Json.arr b (fun () -> Json.sep_iter b (Json.str b) files));
  Buffer.add_char b '\n';
  Buffer.contents b

let make ~reason ~detail ~label ~seed ?window_us ~obs () =
  let mon = Bus.monitor obs and sink = Bus.sink obs in
  let window =
    match window_us with
    | Some w -> Some w
    | None -> (
      match Monitor.first_incident_ts mon with
      | Some ts -> Some (max 0 (ts - window_before_us), ts + window_after_us)
      | None -> None)
  in
  let files =
    [
      ("violations.json", violations_json mon);
      ("snapshots.json", views_json (Monitor.views mon));
      ("flight.json", Flight.to_json (Bus.flight_ring obs));
      ("trace.json", Trace.to_json ?window sink);
      ("profile.json", Profile.to_json (Bus.profile obs));
      ("metrics.csv", Metrics.to_csv sink);
    ]
  in
  let manifest =
    manifest_json ~reason ~detail ~label ~seed ~window
      ("manifest.json" :: List.map fst files)
  in
  ("manifest.json", manifest) :: files

let files t = List.map fst t

let write ~dir t =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  List.iter
    (fun (name, contents) ->
      let oc = open_out (Filename.concat dir name) in
      output_string oc contents;
      close_out oc)
    t
