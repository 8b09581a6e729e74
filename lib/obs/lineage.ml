(* Causal lineage tracing.  See lineage.mli for the model: a recorder
   (per-txn event log fed by the client/replica stacks), a provenance
   DAG derived from it, and the contention explainer that aggregates
   the DAG into hot keys, aggressor/victim matrices and cascade
   statistics.  Everything downstream of [records] is a pure function,
   shared by the harness summary, the tests and [bin/morty_inspect]. *)

type ver = int * int

let v0 = (0, 0)

let pp_ver ppf (ts, id) =
  if ts = 0 && id = 0 then Format.pp_print_string ppf "v0"
  else Format.fprintf ppf "v(%d,%d)" ts id

let ver_string v = Format.asprintf "%a" pp_ver v

let ver_of_string s =
  let s = String.trim s in
  let body =
    let n = String.length s in
    if n >= 3 && s.[0] = 'v' && s.[1] = '(' && s.[n - 1] = ')' then
      String.sub s 2 (n - 3)
    else if s = "v0" then "0,0"
    else s
  in
  let split c =
    match String.index_opt body c with
    | None -> None
    | Some i ->
      Some
        ( String.sub body 0 i,
          String.sub body (i + 1) (String.length body - i - 1) )
  in
  match (match split ',' with Some p -> Some p | None -> split ':') with
  | None -> None
  | Some (a, b) -> (
    match (int_of_string_opt (String.trim a), int_of_string_opt (String.trim b))
    with
    | Some ts, Some id -> Some (ts, id)
    | _ -> None)

type trigger = Missed_read | Stale_version | Truncation_merge

let trigger_name = function
  | Missed_read -> "missed-read"
  | Stale_version -> "stale-version"
  | Truncation_merge -> "truncation-merge"

let trigger_of_name = function
  | "missed-read" -> Some Missed_read
  | "stale-version" -> Some Stale_version
  | "truncation-merge" -> Some Truncation_merge
  | _ -> None

type event =
  | Read of { e_ts : int; e_key : string; e_from : ver; e_eid : int }
  | Reexec of {
      e_ts : int;
      e_eid : int;
      e_trigger : trigger;
      e_key : string;
      e_aggressor : ver;
    }
  | Conflict of { e_ts : int; e_key : string; e_aggressor : ver; e_reason : string }

type record = {
  r_ver : ver;
  r_label : string;
  r_begin_us : int;
  r_end_us : int;
  r_committed : bool;
  r_reason : string;
  r_reexecs : int;
  r_work_us : int;
  r_events : event list;
}

(* --- Recorder ---------------------------------------------------------- *)

type acc = {
  a_ver : ver;
  a_label : string;
  a_begin_us : int;
  mutable a_events : event list;  (* reverse program order *)
  mutable a_reexecs : int;
  mutable a_finished : bool;
  mutable a_committed : bool;
  mutable a_reason : string;
  mutable a_end_us : int;
  mutable a_work_us : int;
}

type t = {
  enabled : bool;
  label : string;
  mutable pending_label : string;
  txns : (ver, acc) Hashtbl.t;
}

let make ~enabled ~label =
  { enabled; label; pending_label = "?"; txns = Hashtbl.create (if enabled then 1024 else 1) }

(* Disabled singleton per domain: observers must never be shared across
   the orchestrator's worker domains (see Sink.null). *)
let null_key = Domain.DLS.new_key (fun () -> make ~enabled:false ~label:"null")
let null () = Domain.DLS.get null_key
let create ?(label = "lineage") () = make ~enabled:true ~label
let enabled t = t.enabled
let label t = t.label

let next_txn_label t label = if t.enabled then t.pending_label <- label

let note_begin t ~ver ~ts =
  if t.enabled && not (Hashtbl.mem t.txns ver) then begin
    Hashtbl.replace t.txns ver
      {
        a_ver = ver;
        a_label = t.pending_label;
        a_begin_us = ts;
        a_events = [];
        a_reexecs = 0;
        a_finished = false;
        a_committed = false;
        a_reason = "";
        a_end_us = 0;
        a_work_us = 0;
      };
    t.pending_label <- "?"
  end

let push t ver ev =
  match Hashtbl.find_opt t.txns ver with
  | None -> ()
  | Some a -> a.a_events <- ev :: a.a_events

let note_read t ~ver ~key ~from ~eid ~ts =
  if t.enabled then push t ver (Read { e_ts = ts; e_key = key; e_from = from; e_eid = eid })

let note_reexec t ~ver ~eid ~trigger ~key ~aggressor ~ts =
  if t.enabled then begin
    (match Hashtbl.find_opt t.txns ver with
    | None -> ()
    | Some a -> a.a_reexecs <- a.a_reexecs + 1);
    push t ver
      (Reexec { e_ts = ts; e_eid = eid; e_trigger = trigger; e_key = key;
                e_aggressor = aggressor })
  end

let note_conflict t ~ver ~key ~aggressor ~reason ~ts =
  if t.enabled then
    push t ver (Conflict { e_ts = ts; e_key = key; e_aggressor = aggressor; e_reason = reason })

let note_finish t ~ver ~committed ~reason ~work_us ~ts =
  if t.enabled then
    match Hashtbl.find_opt t.txns ver with
    | None -> ()
    | Some a ->
      if not a.a_finished then begin
        a.a_finished <- true;
        a.a_committed <- committed;
        a.a_reason <- (if committed then "" else reason);
        a.a_end_us <- ts;
        a.a_work_us <- work_us
      end

let n_txns t = Hashtbl.length t.txns

let record_of_acc a =
  {
    r_ver = a.a_ver;
    r_label = a.a_label;
    r_begin_us = a.a_begin_us;
    r_end_us = a.a_end_us;
    r_committed = a.a_committed;
    r_reason = (if a.a_finished then a.a_reason else "in-flight");
    r_reexecs = a.a_reexecs;
    r_work_us = a.a_work_us;
    r_events = List.rev a.a_events;
  }

let records t =
  Hashtbl.fold (fun _ a l -> record_of_acc a :: l) t.txns []
  |> List.sort (fun a b -> compare a.r_ver b.r_ver)

(* --- JSONL serialisation ------------------------------------------------ *)

let emit_ver b (ts, id) =
  Buffer.add_char b '[';
  Json.int b ts;
  Buffer.add_char b ',';
  Json.int b id;
  Buffer.add_char b ']'

let emit_event b ev =
  Json.obj b (fun () ->
      match ev with
      | Read { e_ts; e_key; e_from; e_eid } ->
        Json.fld b true "t";
        Json.str b "read";
        Json.fld b false "ts";
        Json.int b e_ts;
        Json.fld b false "key";
        Json.str b e_key;
        Json.fld b false "from";
        emit_ver b e_from;
        Json.fld b false "eid";
        Json.int b e_eid
      | Reexec { e_ts; e_eid; e_trigger; e_key; e_aggressor } ->
        Json.fld b true "t";
        Json.str b "reexec";
        Json.fld b false "ts";
        Json.int b e_ts;
        Json.fld b false "eid";
        Json.int b e_eid;
        Json.fld b false "trig";
        Json.str b (trigger_name e_trigger);
        Json.fld b false "key";
        Json.str b e_key;
        Json.fld b false "agg";
        emit_ver b e_aggressor
      | Conflict { e_ts; e_key; e_aggressor; e_reason } ->
        Json.fld b true "t";
        Json.str b "conflict";
        Json.fld b false "ts";
        Json.int b e_ts;
        Json.fld b false "key";
        Json.str b e_key;
        Json.fld b false "agg";
        emit_ver b e_aggressor;
        Json.fld b false "reason";
        Json.str b e_reason)

let emit_record b r =
  Json.obj b (fun () ->
      Json.fld b true "ver";
      emit_ver b r.r_ver;
      Json.fld b false "label";
      Json.str b r.r_label;
      Json.fld b false "begin";
      Json.int b r.r_begin_us;
      Json.fld b false "end";
      Json.int b r.r_end_us;
      Json.fld b false "committed";
      Json.bool b r.r_committed;
      Json.fld b false "reason";
      Json.str b r.r_reason;
      Json.fld b false "reexecs";
      Json.int b r.r_reexecs;
      Json.fld b false "work_us";
      Json.int b r.r_work_us;
      Json.fld b false "events";
      Json.arr b (fun () -> Json.sep_iter b (emit_event b) r.r_events));
  Buffer.add_char b '\n'

let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter (emit_record b) (records t);
  Buffer.contents b

(* --- JSONL parsing ------------------------------------------------------ *)

(* Minimal recursive-descent reader for the JSON we emit ourselves (no
   JSON library in the tree).  Strict enough to reject corrupt files,
   simple enough to stay obviously correct. *)

type jv =
  | J_bool of bool
  | J_int of int
  | J_str of string
  | J_arr of jv list
  | J_obj of (string * jv) list

exception Bad of string

let parse_value s pos =
  let n = String.length s in
  let fail msg = raise (Bad (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else fail "eof" in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do incr pos done
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c) in
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
          (* Our emitter only \u-escapes control bytes; decode the low
             byte and drop the high one. *)
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
    | '"' -> J_str (parse_string ())
    | 't' ->
      pos := !pos + 4;
      J_bool true
    | 'f' ->
      pos := !pos + 5;
      J_bool false
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin incr pos; J_arr [] end
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        J_arr (items [])
      end
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin incr pos; J_obj [] end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; List.rev ((k, v) :: acc)
          | _ -> fail "expected , or }"
        in
        J_obj (fields [])
      end
    | '-' | '0' .. '9' ->
      let start = !pos in
      incr pos;
      while
        !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false)
      do
        incr pos
      done;
      (match int_of_string_opt (String.sub s start (!pos - start)) with
      | Some i -> J_int i
      | None -> fail "bad number")
    | _ -> fail "unexpected character"
  in
  value ()

let jfield fields name =
  match List.assoc_opt name fields with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing field %S" name))

let jint = function J_int i -> i | _ -> raise (Bad "expected int")
let jstr = function J_str s -> s | _ -> raise (Bad "expected string")
let jbool = function J_bool v -> v | _ -> raise (Bad "expected bool")

let jver = function
  | J_arr [ J_int ts; J_int id ] -> (ts, id)
  | _ -> raise (Bad "expected version pair")

let event_of_jv = function
  | J_obj f -> (
    match jstr (jfield f "t") with
    | "read" ->
      Read
        {
          e_ts = jint (jfield f "ts");
          e_key = jstr (jfield f "key");
          e_from = jver (jfield f "from");
          e_eid = jint (jfield f "eid");
        }
    | "reexec" ->
      let trig = jstr (jfield f "trig") in
      Reexec
        {
          e_ts = jint (jfield f "ts");
          e_eid = jint (jfield f "eid");
          e_trigger =
            (match trigger_of_name trig with
            | Some tr -> tr
            | None -> raise (Bad (Printf.sprintf "bad trigger %S" trig)));
          e_key = jstr (jfield f "key");
          e_aggressor = jver (jfield f "agg");
        }
    | "conflict" ->
      Conflict
        {
          e_ts = jint (jfield f "ts");
          e_key = jstr (jfield f "key");
          e_aggressor = jver (jfield f "agg");
          e_reason = jstr (jfield f "reason");
        }
    | other -> raise (Bad (Printf.sprintf "bad event type %S" other)))
  | _ -> raise (Bad "expected event object")

let record_of_line line =
  match parse_value line (ref 0) with
  | J_obj f ->
    {
      r_ver = jver (jfield f "ver");
      r_label = jstr (jfield f "label");
      r_begin_us = jint (jfield f "begin");
      r_end_us = jint (jfield f "end");
      r_committed = jbool (jfield f "committed");
      r_reason = jstr (jfield f "reason");
      r_reexecs = jint (jfield f "reexecs");
      r_work_us = jint (jfield f "work_us");
      r_events = (match jfield f "events" with
        | J_arr evs -> List.map event_of_jv evs
        | _ -> raise (Bad "expected events array"));
    }
  | _ -> raise (Bad "expected record object")

let parse_jsonl s =
  let lines = String.split_on_char '\n' s in
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        match record_of_line line with
        | r -> Some r
        | exception Bad msg -> failwith (Printf.sprintf "lineage parse: %s" msg))
    lines

(* --- Provenance DAG ----------------------------------------------------- *)

type edge_kind = E_read | E_reexec | E_conflict

type edge = {
  e_src : ver;
  e_dst : ver;
  e_key : string;
  e_kind : edge_kind;
  e_eid : int;
}

let edges recs =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun ev ->
          let mk src kind key eid =
            if src = v0 || src = r.r_ver then None
            else Some { e_src = src; e_dst = r.r_ver; e_key = key; e_kind = kind; e_eid = eid }
          in
          match ev with
          | Read { e_key; e_from; e_eid; _ } -> mk e_from E_read e_key e_eid
          | Reexec { e_key; e_aggressor; e_eid; _ } ->
            mk e_aggressor E_reexec e_key e_eid
          | Conflict { e_key; e_aggressor; _ } -> mk e_aggressor E_conflict e_key 0)
        r.r_events)
    recs

(* Blame edges only: the aggressor→victim relation the cascade analysis
   and the matrices are built on (read edges are observation, not
   blame). *)
let blame_edges recs =
  List.filter (fun e -> e.e_kind <> E_read) (edges recs)

(* --- Contention explainer ----------------------------------------------- *)

type key_heat = { hk_reexecs : int; hk_conflicts : int; hk_aborts : int }

let heat_total h = h.hk_reexecs + h.hk_conflicts + h.hk_aborts

let hot_keys recs k =
  let tbl = Hashtbl.create 64 in
  let get key =
    match Hashtbl.find_opt tbl key with
    | Some h -> h
    | None ->
      let h = ref { hk_reexecs = 0; hk_conflicts = 0; hk_aborts = 0 } in
      Hashtbl.replace tbl key h;
      h
  in
  List.iter
    (fun r ->
      let last_blame = ref None in
      List.iter
        (fun ev ->
          match ev with
          | Read _ -> ()
          | Reexec { e_key; _ } ->
            let h = get e_key in
            h := { !h with hk_reexecs = !h.hk_reexecs + 1 };
            last_blame := Some e_key
          | Conflict { e_key; _ } ->
            let h = get e_key in
            h := { !h with hk_conflicts = !h.hk_conflicts + 1 };
            last_blame := Some e_key)
        r.r_events;
      if (not r.r_committed) && r.r_reason <> "in-flight" then
        match !last_blame with
        | Some key ->
          let h = get key in
          h := { !h with hk_aborts = !h.hk_aborts + 1 }
        | None -> ())
    recs;
  Hashtbl.fold (fun key h l -> (key, !h) :: l) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare (heat_total b) (heat_total a) with
         | 0 -> compare ka kb
         | c -> c)
  |> List.filteri (fun i _ -> i < k)

let matrix recs =
  let by_ver = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace by_ver r.r_ver r) recs;
  let lbl v =
    match Hashtbl.find_opt by_ver v with Some r -> r.r_label | None -> "?"
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let cell = (lbl e.e_src, lbl e.e_dst) in
      Hashtbl.replace tbl cell
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl cell)))
    (blame_edges recs);
  Hashtbl.fold (fun cell n l -> (cell, n) :: l) tbl []
  |> List.sort compare

type cascades = {
  c_count : int;
  c_victims : int;
  c_depth_hist : (int * int) list;
  c_depth_p99 : float;
  c_depth_max : int;
  c_max_fanout : int;
  c_salvaged_us : int;
  c_lost_us : int;
}

let cascades recs =
  let blame = blame_edges recs in
  (* victim → distinct aggressors, aggressor → distinct victims *)
  let dedup = Hashtbl.create 256 in
  let ins tbl k v =
    let l = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
    if not (List.mem v l) then Hashtbl.replace tbl k (v :: l)
  in
  let aggs_of = Hashtbl.create 256 and victims_of = Hashtbl.create 256 in
  List.iter
    (fun e ->
      if not (Hashtbl.mem dedup (e.e_src, e.e_dst)) then begin
        Hashtbl.replace dedup (e.e_src, e.e_dst) ();
        ins aggs_of e.e_dst e.e_src;
        ins victims_of e.e_src e.e_dst
      end)
    blame;
  (* Blame-chain depth: 0 for non-victims, else 1 + deepest aggressor.
     The relation can contain cycles (mutual wounds); nodes on the
     current DFS path count as depth 0, which bounds every chain. *)
  let depth_memo = Hashtbl.create 256 in
  let rec depth visiting v =
    match Hashtbl.find_opt depth_memo v with
    | Some d -> d
    | None ->
      if List.mem v visiting then 0
      else
        let d =
          match Hashtbl.find_opt aggs_of v with
          | None | Some [] -> 0
          | Some aggs ->
            1 + List.fold_left (fun m a -> max m (depth (v :: visiting) a)) 0 aggs
        in
        Hashtbl.replace depth_memo v d;
        d
  in
  let by_ver = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace by_ver r.r_ver r) recs;
  let victim_depths =
    Hashtbl.fold (fun v _ l -> (v, depth [] v) :: l) aggs_of []
    |> List.filter (fun (_, d) -> d > 0)
  in
  let roots =
    Hashtbl.fold
      (fun v _ n -> if Hashtbl.mem aggs_of v then n else n + 1)
      victims_of 0
  in
  let hist = Hashtbl.create 8 in
  List.iter
    (fun (_, d) ->
      Hashtbl.replace hist d (1 + Option.value ~default:0 (Hashtbl.find_opt hist d)))
    victim_depths;
  let depths = List.sort compare (List.map snd victim_depths) in
  let n = List.length depths in
  let p99 =
    if n = 0 then 0.
    else
      let ix = min (n - 1) (int_of_float (ceil (0.99 *. float_of_int n)) - 1) in
      float_of_int (List.nth depths (max 0 ix))
  in
  let max_fanout =
    Hashtbl.fold (fun _ vs m -> max m (List.length vs)) victims_of 0
  in
  let salvaged, lost =
    List.fold_left
      (fun (s, l) (v, _) ->
        match Hashtbl.find_opt by_ver v with
        | None -> (s, l)
        | Some r ->
          if r.r_committed then (s + r.r_work_us, l)
          else if r.r_reason = "in-flight" then (s, l)
          else (s, l + r.r_work_us))
      (0, 0) victim_depths
  in
  {
    c_count = roots;
    c_victims = n;
    c_depth_hist =
      Hashtbl.fold (fun d n l -> (d, n) :: l) hist [] |> List.sort compare;
    c_depth_p99 = p99;
    c_depth_max = List.fold_left max 0 depths;
    c_max_fanout = max_fanout;
    c_salvaged_us = salvaged;
    c_lost_us = lost;
  }

type summary = {
  s_txns : int;
  s_edges : int;
  s_cascades : int;
  s_depth_p99 : float;
  s_depth_max : int;
  s_salvaged_us : int;
  s_lost_us : int;
  s_hot_key : string;
}

let summary recs =
  let c = cascades recs in
  {
    s_txns = List.length recs;
    s_edges = List.length (edges recs);
    s_cascades = c.c_count;
    s_depth_p99 = c.c_depth_p99;
    s_depth_max = c.c_depth_max;
    s_salvaged_us = c.c_salvaged_us;
    s_lost_us = c.c_lost_us;
    s_hot_key = (match hot_keys recs 1 with (k, _) :: _ -> k | [] -> "-");
  }

(* --- Explain ------------------------------------------------------------ *)

let fate_string r =
  if r.r_reason = "in-flight" then "in flight"
  else if r.r_committed then "committed"
  else Printf.sprintf "aborted(%s)" r.r_reason

let explain recs ver =
  let by_ver = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace by_ver r.r_ver r) recs;
  match Hashtbl.find_opt by_ver ver with
  | None -> Printf.sprintf "%s: no lineage record\n" (ver_string ver)
  | Some r ->
    let b = Buffer.create 512 in
    let describe v =
      match Hashtbl.find_opt by_ver v with
      | None -> ver_string v
      | Some a -> Printf.sprintf "%s [%s, %s]" (ver_string v) a.r_label (fate_string a)
    in
    Buffer.add_string b
      (Printf.sprintf "%s [%s] %s after %d re-execution(s), work %d us\n"
         (ver_string ver) r.r_label (fate_string r) r.r_reexecs r.r_work_us);
    List.iter
      (fun ev ->
        Buffer.add_string b
          (match ev with
          | Read { e_ts; e_key; e_from; e_eid } ->
            Printf.sprintf "  %8d  read     %-24s from %s (eid %d)\n" e_ts e_key
              (ver_string e_from) e_eid
          | Reexec { e_ts; e_eid; e_trigger; e_key; e_aggressor } ->
            Printf.sprintf "  %8d  reexec   -> eid %d: %s on %s, aggressor %s\n"
              e_ts e_eid (trigger_name e_trigger) e_key (describe e_aggressor)
          | Conflict { e_ts; e_key; e_aggressor; e_reason } ->
            Printf.sprintf "  %8d  conflict %-24s %s, aggressor %s\n" e_ts e_key
              e_reason (describe e_aggressor)))
      r.r_events;
    (* Transitive blame chain: walk the worst aggressor upward. *)
    let aggs v =
      match Hashtbl.find_opt by_ver v with
      | None -> []
      | Some r ->
        List.filter_map
          (fun ev ->
            match ev with
            | Reexec { e_aggressor; _ } | Conflict { e_aggressor; _ } ->
              if e_aggressor = v0 || e_aggressor = v then None else Some e_aggressor
            | Read _ -> None)
          r.r_events
    in
    let rec chain seen v =
      match aggs v with
      | [] -> []
      | a :: _ -> if List.mem a seen then [] else a :: chain (a :: seen) a
    in
    (match chain [ ver ] ver with
    | [] -> ()
    | c ->
      Buffer.add_string b
        (Printf.sprintf "  blame chain: %s <- %s\n" (ver_string ver)
           (String.concat " <- " (List.map describe c))));
    Buffer.contents b

let pp_summary ppf t =
  let s = summary (records t) in
  Format.fprintf ppf
    "lineage[%s]: txns=%d edges=%d cascades=%d depth_p99=%.1f depth_max=%d \
     salvaged_us=%d lost_us=%d hot=%s"
    t.label s.s_txns s.s_edges s.s_cascades s.s_depth_p99 s.s_depth_max
    s.s_salvaged_us s.s_lost_us s.s_hot_key
