(* Flight recorder: a bounded ring buffer of the most recent
   fine-grained events in a run — engine dispatches, message sends and
   deliveries with provenance, and the trace sink's entries.  Purely
   observational: recording draws no randomness and changes nothing, so
   an attached recorder leaves a seeded run byte-identical.  When
   something goes wrong the ring is what a post-mortem bundle ships as
   "the last N things that happened". *)

type entry =
  | Span of { fl_ts : int; name : string; cat : string; pid : int; dur : int }
  | Send of { fl_ts : int; src : int; dst : int; kind : string; dropped : bool }
  | Deliver of {
      fl_ts : int;
      src : int;
      dst : int;
      kind : string;
      send_us : int;
    }
  | Engine_ev of { fl_ts : int; kind : string }

type t = {
  enabled : bool;
  cap : int;
  buf : entry option array;
  mutable total : int;  (* entries ever recorded *)
}

let default_capacity = 4096

(* Per-domain disabled instance — see the note on [Sink.null]. *)
let null_key =
  Domain.DLS.new_key (fun () -> { enabled = false; cap = 0; buf = [||]; total = 0 })

let null () = Domain.DLS.get null_key

let create ?(capacity = default_capacity) () =
  let cap = max 1 capacity in
  { enabled = true; cap; buf = Array.make cap None; total = 0 }

let enabled t = t.enabled
let capacity t = t.cap
let total t = t.total

let record t e =
  if t.enabled then begin
    t.buf.(t.total mod t.cap) <- Some e;
    t.total <- t.total + 1
  end

let entries t =
  if t.total = 0 then []
  else begin
    let n = min t.total t.cap in
    let first = t.total - n in
    let out = ref [] in
    for i = first + n - 1 downto first do
      match t.buf.(i mod t.cap) with
      | Some e -> out := e :: !out
      | None -> ()
    done;
    !out
  end

let entry_ts = function
  | Span { fl_ts; _ }
  | Send { fl_ts; _ }
  | Deliver { fl_ts; _ }
  | Engine_ev { fl_ts; _ } -> fl_ts

let add_entry b e =
  let fld = Json.fld b in
  Json.obj b (fun () ->
      fld true "ts";
      Json.int b (entry_ts e);
      match e with
      | Span { name; cat; pid; dur; _ } ->
        fld false "type";
        Json.str b "span";
        fld false "name";
        Json.str b name;
        fld false "cat";
        Json.str b cat;
        fld false "pid";
        Json.int b pid;
        fld false "dur";
        Json.int b dur
      | Send { src; dst; kind; dropped; _ } ->
        fld false "type";
        Json.str b "send";
        fld false "src";
        Json.int b src;
        fld false "dst";
        Json.int b dst;
        fld false "kind";
        Json.str b kind;
        fld false "dropped";
        Json.bool b dropped
      | Deliver { src; dst; kind; send_us; _ } ->
        fld false "type";
        Json.str b "deliver";
        fld false "src";
        Json.int b src;
        fld false "dst";
        Json.int b dst;
        fld false "kind";
        Json.str b kind;
        fld false "send_us";
        Json.int b send_us
      | Engine_ev { kind; _ } ->
        fld false "type";
        Json.str b "engine";
        fld false "kind";
        Json.str b kind)

let to_json t =
  let b = Buffer.create 16384 in
  Json.obj b (fun () ->
      Json.fld b true "capacity";
      Json.int b t.cap;
      Json.fld b false "total_recorded";
      Json.int b t.total;
      Json.fld b false "dropped";
      Json.int b (max 0 (t.total - t.cap));
      Json.fld b false "entries";
      Json.arr b (fun () ->
          Json.sep_iter b
            (fun e ->
              Buffer.add_char b '\n';
              add_entry b e)
            (entries t)));
  Buffer.add_char b '\n';
  Buffer.contents b
