(* The run-ledger artifact.  Emission is hand-rolled like every other
   JSON writer in obs (shared escaper in Json).  There is no reader:
   every value is deterministic, so the gate compares text. *)

type entry = {
  en_system : string;
  en_point : string;
  en_det : (string * float array) list;
}

type t = { config : string; seeds : int list; entries : entry list }

let entry ~system ~point rows =
  let metrics = match rows with [] -> [] | first :: _ -> List.map fst first in
  let samples m = (m, Array.of_list (List.map (List.assoc m) rows)) in
  { en_system = system; en_point = point; en_det = List.map samples metrics }

let make ~config ~seeds entries = { config; seeds; entries }

(* Shortest-integer form when exact, full precision otherwise: equal
   values must render as equal bytes, and every value reads back
   bit-for-bit, so non-integral values print at %.17g. *)
let num_str x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* What one rendered line pins: a header field, or one sample array. *)
type what = Field of string | Metric of entry * string * float array

(* Everything of a metric line before its values. *)
let metric_prefix e metric =
  let b = Buffer.create 96 in
  Buffer.add_string b "{\"system\":";
  Json.str b e.en_system;
  Buffer.add_string b ",\"point\":";
  Json.str b e.en_point;
  Buffer.add_string b ",\"metric\":";
  Json.str b metric;
  Buffer.add_string b ",\"values\":[";
  Buffer.contents b

let lines t =
  let config =
    let b = Buffer.create 128 in
    Buffer.add_string b "{\"config\": ";
    Json.str b t.config;
    Buffer.add_char b ',';
    Buffer.contents b
  in
  let seeds =
    "\"seeds\": [" ^ String.concat "," (List.map string_of_int t.seeds) ^ "],"
  in
  let metrics =
    List.concat_map
      (fun e -> List.map (fun (m, values) -> (e, m, values)) e.en_det)
      t.entries
  in
  let last = List.length metrics - 1 in
  let metric_line i (e, m, values) =
    ( metric_prefix e m
      ^ String.concat "," (Array.to_list (Array.map num_str values))
      ^ (if i < last then "]}," else "]}"),
      Metric (e, m, values) )
  in
  ((config, Field "config") :: (seeds, Field "seeds")
   :: ("\"metrics\": [", Field "metrics")
   :: List.mapi metric_line metrics)
  @ [ ("]}", Field "end of ledger") ]

let text lines =
  let b = Buffer.create 8192 in
  List.iter
    (fun (l, _) ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    lines;
  Buffer.contents b

let render t = text (lines t)

(* --- the exact gate ------------------------------------------------ *)

type mismatch = {
  line : int;
  system : string;
  point : string;
  metric : string;
  seed : int option;
  committed : string;
  fresh : string;
}

let strip_comma s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = ',' then String.sub s 0 (n - 1) else s

let first_mismatch ~committed t =
  let lines = lines t in
  if String.equal committed (text lines) then None
  else begin
    (* The rendering ends in a newline, so splitting it ends in "". *)
    let fresh = Array.of_list (lines @ [ ("", Field "end of file") ]) in
    let old = Array.of_list (String.split_on_char '\n' committed) in
    let at a i = if i < Array.length a then Some a.(i) else None in
    let n = max (Array.length fresh) (Array.length old) in
    let rec first norm i =
      if i >= n then None
      else
        match (at old i, at fresh i) with
        | Some o, Some (f, _) when String.equal (norm o) (norm f) ->
          first norm (i + 1)
        | _ -> Some i
    in
    (* The texts differ, so some line differs at least raw. *)
    let i =
      match first strip_comma 0 with
      | Some i -> i
      | None -> Option.get (first Fun.id 0)
    in
    let none = "(no line)" in
    let o = Option.value (at old i) ~default:none in
    let whole ?(system = "") ?(point = "") metric f =
      { line = i + 1; system; point; metric; seed = None; committed = o;
        fresh = f }
    in
    match at fresh i with
    | None -> Some (whole "end of file" none)
    | Some (f, Field name) -> Some (whole name f)
    | Some (f, Metric (e, metric, values)) -> (
      let system = e.en_system and point = e.en_point in
      let prefix = metric_prefix e metric in
      let p = String.length prefix in
      match
        if String.starts_with ~prefix o then String.index_from_opt o p ']'
        else None
      with
      | None -> Some (whole ~system ~point metric f)
      | Some stop ->
        let olds =
          match String.sub o p (stop - p) with
          | "" -> [||]
          | s -> Array.of_list (String.split_on_char ',' s)
        in
        let freshs = Array.map num_str values in
        let k = max (Array.length olds) (Array.length freshs) in
        let rec go j =
          if j >= k then None
          else if at olds j = at freshs j then go (j + 1)
          else Some j
        in
        (match go 0 with
        | None -> Some (whole ~system ~point metric f)
        | Some j ->
          let value a = Option.value (at a j) ~default:"(none)" in
          Some
            {
              line = i + 1;
              system;
              point;
              metric;
              seed =
                (if Array.length values = List.length t.seeds then
                   List.nth_opt t.seeds j
                 else None);
              committed = value olds;
              fresh = value freshs;
            }))
  end

let pp_mismatch ppf m =
  Format.fprintf ppf "line %d: " m.line;
  if m.system = "" then Format.fprintf ppf "%s" m.metric
  else
    Format.fprintf ppf "system %s, point %s, metric %s" m.system m.point
      m.metric;
  Option.iter (Format.fprintf ppf ", seed %d") m.seed;
  Format.fprintf ppf "@.  committed: %s@.  fresh:     %s@." m.committed m.fresh
