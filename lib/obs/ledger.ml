(* The run-ledger artifact.  Emission is hand-rolled like every other
   JSON writer in obs (shared escaper in Json); parsing is a small
   self-contained reader with float support — Lineage's JSONL reader is
   integer-only, and the ledger needs real numbers. *)

let schema_version = 1

type entry = {
  en_system : string;
  en_point : string;
  en_det : (string * float array) list;
  en_host : (string * float array) list;
}

type manifest = {
  m_schema : int;
  m_config : string;
  m_seeds : int list;
  m_describe : string;
}

type t = { manifest : manifest; entries : entry list }

let hash_config s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  Printf.sprintf "%016Lx" !h

let make ~config ~seeds ?(describe = "unknown") entries =
  {
    manifest =
      {
        m_schema = schema_version;
        m_config = hash_config config;
        m_seeds = seeds;
        m_describe = describe;
      };
    entries;
  }

(* --- emission ------------------------------------------------------ *)

(* Shortest-integer form when exact, full precision otherwise: the
   deterministic section must survive an emit/parse round trip
   bit-for-bit, so non-integral values print at %.17g. *)
let num_str x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let add_samples buf samples =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (name, values) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.str buf name;
      Buffer.add_string buf ":[";
      Array.iteri
        (fun j v ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (num_str v))
        values;
      Buffer.add_char buf ']')
    samples;
  Buffer.add_char buf '}'

let add_entry buf ~det_only e =
  Buffer.add_string buf "{\"system\":";
  Json.str buf e.en_system;
  Buffer.add_string buf ",\"point\":";
  Json.str buf e.en_point;
  Buffer.add_string buf ",\"det\":";
  add_samples buf e.en_det;
  if not det_only then begin
    Buffer.add_string buf ",\"host\":";
    add_samples buf e.en_host
  end;
  Buffer.add_char buf '}'

let render ~det_only t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n\"schema\": ";
  Buffer.add_string buf (string_of_int t.manifest.m_schema);
  Buffer.add_string buf ",\n\"config\": ";
  Json.str buf t.manifest.m_config;
  Buffer.add_string buf ",\n\"seeds\": [";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int s))
    t.manifest.m_seeds;
  Buffer.add_string buf "]";
  if not det_only then begin
    Buffer.add_string buf ",\n\"describe\": ";
    Json.str buf t.manifest.m_describe
  end;
  Buffer.add_string buf ",\n\"entries\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_entry buf ~det_only e)
    t.entries;
  Buffer.add_string buf "\n]\n}\n";
  Buffer.contents buf

let to_json t = render ~det_only:false t

let det_json t = render ~det_only:true t

(* --- parsing ------------------------------------------------------- *)

module J = struct
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  exception Bad of string

  let parse_exn s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then s.[!pos] else fail "unexpected eof" in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if peek () = c then incr pos
      else fail (Printf.sprintf "expected %C" c)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          (match peek () with
          | ('"' | '\\' | '/') as c -> Buffer.add_char b c
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            if !pos + 4 >= n then fail "short unicode escape";
            let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
            Buffer.add_char b (Char.chr (code land 0xff));
            pos := !pos + 4
          | _ -> fail "bad escape");
          incr pos;
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
      in
      go ();
      Buffer.contents b
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | '"' -> Str (parse_string ())
      | 't' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
          pos := !pos + 4;
          Bool true
        end
        else fail "bad literal"
      | 'f' ->
        if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
          pos := !pos + 5;
          Bool false
        end
        else fail "bad literal"
      | 'n' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
          pos := !pos + 4;
          Null
        end
        else fail "bad literal"
      | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
              incr pos;
              items (v :: acc)
            | ']' ->
              incr pos;
              List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          Arr (items [])
        end
      | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | ',' ->
              incr pos;
              fields ((k, v) :: acc)
            | '}' ->
              incr pos;
              List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (fields [])
        end
      | '-' | '0' .. '9' ->
        let start = !pos in
        incr pos;
        while
          !pos < n
          &&
          match s.[!pos] with
          | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
          | _ -> false
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
      | _ -> fail "unexpected character"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let parse s = match parse_exn s with v -> Ok v | exception Bad m -> Error m

  let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
end

type error = Missing_file of string | Empty | Parse of string | Schema of int

let error_to_string = function
  | Missing_file path -> Printf.sprintf "cannot read %s" path
  | Empty -> "empty ledger (no bytes or no entries)"
  | Parse msg -> Printf.sprintf "malformed ledger: %s" msg
  | Schema v ->
    Printf.sprintf "ledger schema version %d (this build understands %d)" v
      schema_version

let error_exit_code = function
  | Missing_file _ -> 3
  | Empty | Parse _ -> 4
  | Schema _ -> 5

let parse s =
  if String.trim s = "" then Error Empty
  else
    match J.parse s with
    | Error msg -> Error (Parse msg)
    | Ok json -> (
      let jnum = function J.Num f -> Some f | _ -> None in
      let jstr = function J.Str s -> Some s | _ -> None in
      match J.member "schema" json with
      | None -> Error (Parse "missing \"schema\" field")
      | Some sv -> (
        match jnum sv with
        | None -> Error (Parse "non-numeric \"schema\" field")
        | Some v when int_of_float v <> schema_version ->
          Error (Schema (int_of_float v))
        | Some _ -> (
          let config =
            Option.bind (J.member "config" json) jstr
            |> Option.value ~default:""
          in
          let describe =
            Option.bind (J.member "describe" json) jstr
            |> Option.value ~default:"unknown"
          in
          let seeds =
            match J.member "seeds" json with
            | Some (J.Arr vs) ->
              List.filter_map (fun v -> Option.map int_of_float (jnum v)) vs
            | _ -> []
          in
          let samples_of = function
            | J.Obj fields ->
              List.map
                (fun (name, v) ->
                  match v with
                  | J.Arr vs ->
                    ( name,
                      Array.of_list
                        (List.filter_map jnum vs) )
                  | _ -> (name, [||]))
                fields
            | _ -> []
          in
          match J.member "entries" json with
          | Some (J.Arr es) when es <> [] ->
            let entries =
              List.filter_map
                (fun e ->
                  match
                    ( Option.bind (J.member "system" e) jstr,
                      Option.bind (J.member "point" e) jstr )
                  with
                  | Some en_system, Some en_point ->
                    Some
                      {
                        en_system;
                        en_point;
                        en_det =
                          (match J.member "det" e with
                          | Some d -> samples_of d
                          | None -> []);
                        en_host =
                          (match J.member "host" e with
                          | Some h -> samples_of h
                          | None -> []);
                      }
                  | _ -> None)
                es
            in
            if entries = [] then Error Empty
            else
              Ok
                {
                  manifest =
                    {
                      m_schema = schema_version;
                      m_config = config;
                      m_seeds = seeds;
                      m_describe = describe;
                    };
                  entries;
                }
          | Some (J.Arr []) -> Error Empty
          | _ -> Error (Parse "missing \"entries\" array"))))

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> parse s
  | exception Sys_error _ -> Error (Missing_file path)

(* --- comparison ---------------------------------------------------- *)

type verdict = Pass | Drift | Regress | Info

let verdict_to_string = function
  | Pass -> "PASS"
  | Drift -> "DRIFT"
  | Regress -> "REGRESS"
  | Info -> "info"

type metric_verdict = {
  v_system : string;
  v_metric : string;
  v_host : bool;
  v_verdict : verdict;
  v_base_mean : float;
  v_cur_mean : float;
  v_base_ci : float * float;
  v_cur_ci : float * float;
  v_p : float;
  v_effect : float;
  v_rel_delta : float;
  v_note : string;
}

type comparison = {
  c_verdicts : metric_verdict list;
  c_config_match : bool;
  c_seeds_match : bool;
  c_regressions : int;
  c_drifts : int;
  c_alpha_effective : float;
}

let rel_delta ~base ~cur =
  let denom = Float.max (Float.abs base) (Float.max (Float.abs cur) 1e-12) in
  (cur -. base) /. denom

let arrays_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if x <> b.(i) then ok := false) a;
      !ok)

let compare_ledgers ?(alpha = 0.05) ?(regress_floor = 0.03) ?(ci_level = 0.95)
    ?(resamples = 1000) ~baseline ~current () =
  let find_entry l sys point =
    List.find_opt
      (fun e -> e.en_system = sys && e.en_point = point)
      l.entries
  in
  (* Bonferroni divisor: every gated metric present on both sides. *)
  let gated_count =
    List.fold_left
      (fun acc be ->
        match find_entry current be.en_system be.en_point with
        | None -> acc
        | Some ce ->
          acc
          + List.length
              (List.filter (fun (m, _) -> List.mem_assoc m ce.en_det) be.en_det))
      0 baseline.entries
  in
  let alpha_eff = alpha /. float_of_int (max 1 gated_count) in
  let verdict_of ~sys ~metric ~host base cur =
    let sb = Bstats.summarize base and sc = Bstats.summarize cur in
    let seed = Bstats.seed_of_name (sys ^ "." ^ metric) in
    let base_ci = Bstats.bootstrap_ci ~resamples ~level:ci_level ~seed base in
    let cur_ci = Bstats.bootstrap_ci ~resamples ~level:ci_level ~seed cur in
    let t = Bstats.mann_whitney base cur in
    let rd = rel_delta ~base:sb.Bstats.mean ~cur:sc.Bstats.mean in
    (* Significance has two routes.  The Bonferroni-corrected U test is
       the principled one, but at ledger seed-set sizes it saturates:
       with ~100 gated metrics and 5 seeds a side the smallest
       achievable p (full separation, ~0.012) can never clear
       alpha/100.  Complete separation at n >= 4 per side — every
       current sample on one side of every baseline sample, exact
       p <= 2/C(8,4) ~ 0.03 before correction — is the strongest
       signal this test can emit, so it counts as significant in its
       own right.  Overlapping samples still need the corrected p. *)
    let separated =
      Float.abs t.Bstats.r >= 1. && sb.Bstats.n >= 4 && sc.Bstats.n >= 4
    in
    let significant = t.Bstats.p <= alpha_eff || separated in
    let verdict, note =
      if host then (Info, "informational (host)")
      else if arrays_equal base cur then (Pass, "identical samples")
      else if not significant then (Pass, "not significant")
      else begin
        let (blo, bhi) = base_ci and (clo, chi) = cur_ci in
        let overlap = not (bhi < clo || chi < blo) in
        if overlap then (Drift, "significant but CIs overlap")
        else if Float.abs rd < regress_floor then
          (Drift, Printf.sprintf "shift %.1f%% below %.0f%% floor"
             (100. *. Float.abs rd) (100. *. regress_floor))
        else (Regress, "significant, CIs disjoint")
      end
    in
    {
      v_system = sys;
      v_metric = metric;
      v_host = host;
      v_verdict = verdict;
      v_base_mean = sb.Bstats.mean;
      v_cur_mean = sc.Bstats.mean;
      v_base_ci = base_ci;
      v_cur_ci = cur_ci;
      v_p = t.Bstats.p;
      v_effect = t.Bstats.r;
      v_rel_delta = rd;
      v_note = note;
    }
  in
  let missing ~sys ~metric ~host ~verdict base note =
    let sb = Bstats.summarize base in
    {
      v_system = sys;
      v_metric = metric;
      v_host = host;
      v_verdict = verdict;
      v_base_mean = sb.Bstats.mean;
      v_cur_mean = 0.;
      v_base_ci = (sb.Bstats.mean, sb.Bstats.mean);
      v_cur_ci = (0., 0.);
      v_p = 1.;
      v_effect = 0.;
      v_rel_delta = 0.;
      v_note = note;
    }
  in
  let verdicts =
    List.concat_map
      (fun be ->
        let sys = be.en_system in
        match find_entry current sys be.en_point with
        | None ->
          [ missing ~sys ~metric:"(entry)" ~host:false ~verdict:Drift [||]
              "entry missing in current" ]
        | Some ce ->
          let section ~host bsec csec =
            List.concat_map
              (fun (metric, base) ->
                match List.assoc_opt metric csec with
                | Some cur -> [ verdict_of ~sys ~metric ~host base cur ]
                | None ->
                  [ missing ~sys ~metric ~host ~verdict:Drift base
                      "missing in current" ])
              bsec
            @ List.filter_map
                (fun (metric, cur) ->
                  if List.mem_assoc metric bsec then None
                  else
                    Some
                      (missing ~sys ~metric ~host ~verdict:Info cur
                         "new metric (absent from baseline)"))
                csec
          in
          section ~host:false be.en_det ce.en_det
          @ section ~host:true be.en_host ce.en_host)
      baseline.entries
  in
  let count v =
    List.length (List.filter (fun mv -> mv.v_verdict = v) verdicts)
  in
  {
    c_verdicts = verdicts;
    c_config_match = baseline.manifest.m_config = current.manifest.m_config;
    c_seeds_match = baseline.manifest.m_seeds = current.manifest.m_seeds;
    c_regressions = count Regress;
    c_drifts = count Drift;
    c_alpha_effective = alpha_eff;
  }

let pp_verdict_table ppf c =
  Format.fprintf ppf "%-8s %-10s %-18s %22s %22s %8s %7s  %s@." "verdict"
    "system" "metric" "baseline (mean [CI])" "current (mean [CI])" "p" "effect"
    "note";
  List.iter
    (fun v ->
      let ci (lo, hi) mean = Printf.sprintf "%.3g [%.3g,%.3g]" mean lo hi in
      Format.fprintf ppf "%-8s %-10s %-18s %22s %22s %8.4f %+7.2f  %s@."
        (verdict_to_string v.v_verdict)
        v.v_system v.v_metric
        (ci v.v_base_ci v.v_base_mean)
        (ci v.v_cur_ci v.v_cur_mean)
        v.v_p v.v_effect v.v_note)
    c.c_verdicts;
  Format.fprintf ppf
    "summary: %d metric(s) compared, %d REGRESS, %d DRIFT (alpha/metric \
     %.4f%s%s)@."
    (List.length c.c_verdicts)
    c.c_regressions c.c_drifts c.c_alpha_effective
    (if c.c_config_match then "" else "; CONFIG MISMATCH")
    (if c.c_seeds_match then "" else "; seed sets differ")

let explain_metric c ~system ~metric =
  match
    List.find_opt
      (fun v -> v.v_system = system && v.v_metric = metric)
      c.c_verdicts
  with
  | None -> None
  | Some v ->
    let (blo, bhi) = v.v_base_ci and (clo, chi) = v.v_cur_ci in
    Some
      (Printf.sprintf
         "%s/%s: %s\n\
         \  baseline mean %.6g, 95%% bootstrap CI [%.6g, %.6g]\n\
         \  observed mean %.6g, 95%% bootstrap CI [%.6g, %.6g]\n\
         \  Mann-Whitney p-bound %.4f (per-metric alpha %.4f), \
          rank-biserial effect %+.2f\n\
         \  relative shift %+.2f%%\n\
         \  %s\n"
         system metric
         (verdict_to_string v.v_verdict)
         v.v_base_mean blo bhi v.v_cur_mean clo chi v.v_p c.c_alpha_effective
         v.v_effect
         (100. *. v.v_rel_delta)
         v.v_note)
