(* Deterministic critical-path profiler.

   Three ledgers, all fed by observational hooks that draw no randomness
   and change no scheduling:

   - {e latency decomposition}: every committed transaction's end-to-end
     latency is split, exactly, into network transit / CPU queueing /
     CPU service / quorum-straggler wait / client backoff / protocol
     wait, per protocol phase.  Attribution is interval-based — each
     wait interval at the client is intersected with the causal chain of
     the message that ended it (reconstructed from [Simnet.Net] delivery
     provenance) — so the components of one transaction always sum to
     its measured latency, to the microsecond.
   - {e wasted work}: every completed CPU job is tagged with the
     transaction version (and Morty execution id) it served; joining
     against transaction outcomes classifies each core-busy microsecond
     as committed-useful, re-executed-then-salvaged, or
     aborted-and-discarded.
   - {e key contention heatmap}: per-key conflict / re-execution / abort
     counters from the replicas' validation and lock paths.

   This module deliberately knows nothing about protocol types: versions
   arrive as [(ts, id)] int pairs and message kinds as strings, keeping
   [obs] dependency-free. *)

let n_phases = 4
let n_comps = 6
let n_cells = n_phases * n_comps

type phase = P_execute | P_prepare | P_finalize | P_retry
type comp = C_transit | C_queue | C_service | C_straggler | C_backoff | C_proto

let phase_index = function
  | P_execute -> 0
  | P_prepare -> 1
  | P_finalize -> 2
  | P_retry -> 3

let comp_index = function
  | C_transit -> 0
  | C_queue -> 1
  | C_service -> 2
  | C_straggler -> 3
  | C_backoff -> 4
  | C_proto -> 5

let cell p c = (phase_index p * n_comps) + comp_index c

let phase_name = function
  | 0 -> "execute"
  | 1 -> "prepare"
  | 2 -> "finalize"
  | _ -> "retry"

let comp_name = function
  | 0 -> "net_transit"
  | 1 -> "cpu_queue"
  | 2 -> "cpu_service"
  | 3 -> "straggler_wait"
  | 4 -> "backoff"
  | _ -> "proto_wait"

type key_acc = {
  mutable k_conflicts : int;
  mutable k_reexecs : int;
  mutable k_aborts : int;
}

type ver_acc = {
  mutable v_total_us : int;
  (* busy µs per execution id — Morty re-executions; everyone else
     only ever uses eid 0 *)
  v_eids : (int, int ref) Hashtbl.t;
}

type waste = {
  w_useful_us : int;
  w_salvaged_us : int;
  w_discarded_us : int;
  w_infra_us : int;  (** transaction-less work, already inside useful *)
  w_total_us : int;
}

type t = {
  enabled : bool;
  label : string;
  (* latency decomposition (committed, in measurement window) *)
  mutable txns : (int * int array) list;  (* latency_us, comps *)
  agg : int array;
  mutable n_txns : int;
  mutable latency_sum_us : int;
  (* wasted-work ledgers *)
  busy_by_kind : (string, int ref) Hashtbl.t;
  busy_by_ver : (int * int, ver_acc) Hashtbl.t;
  mutable infra_us : int;
  outcomes : (int * int, bool * int) Hashtbl.t;  (* committed, final eid *)
  (* heatmap *)
  keys : (string, key_acc) Hashtbl.t;
}

let make ~enabled ~label =
  {
    enabled;
    label;
    txns = [];
    agg = Array.make n_cells 0;
    n_txns = 0;
    latency_sum_us = 0;
    busy_by_kind = Hashtbl.create 32;
    busy_by_ver = Hashtbl.create 256;
    infra_us = 0;
    outcomes = Hashtbl.create 256;
    keys = Hashtbl.create 64;
  }

(* Per-domain disabled instance — see the note on [Sink.null]. *)
let null_key = Domain.DLS.new_key (fun () -> make ~enabled:false ~label:"null")
let null () = Domain.DLS.get null_key
let create ?(label = "profile") () = make ~enabled:true ~label
let enabled t = t.enabled
let label t = t.label

(* --- latency attribution ------------------------------------------------- *)

(* Attribute the client wait interval [t0, t1] (ended by the arrival of
   a message, or by a timer when [reply] is [None]) into [comps] under
   [phase].  [reply] is the ending message's provenance: the virtual
   time it was sent plus the transit/queue/service its causal chain paid
   upstream.  We reconstruct the chain's absolute segments

     request sent ... arrived/enqueued ... service start ... service end
     = reply sent ... reply arrived (t1)

   and charge each component the part of its segment that overlaps the
   interval.  A chain that began {e before} the interval did belongs to
   a trailing quorum reply: the client already held earlier replies to
   the same broadcast, so the whole interval is quorum-straggler wait —
   splitting it into the straggler's transit/queue/service would book
   the same broadcast's network cost twice.  Otherwise whatever the
   chain does not cover is protocol wait (replica-side suspension,
   commit-wait, retry timers).  Charges are exhaustive and
   non-overlapping by construction, so the components of an interval
   always sum to exactly [t1 - t0]. *)
let attribute ~comps ~phase ~t0 ~t1 reply =
  let dur = t1 - t0 in
  if dur > 0 then begin
    let base = phase * n_comps in
    let add c v = if v > 0 then comps.(base + c) <- comps.(base + c) + v in
    match reply with
    | None -> add 5 dur
    | Some (send_us, transit_us, queue_us, service_us) ->
      let ov a b = max 0 (min b t1 - max a t0) in
      let s_end = send_us in
      let s_start = s_end - max 0 service_us in
      let enq = s_start - max 0 queue_us in
      let req = enq - max 0 transit_us in
      if req < t0 then add 3 dur
      else begin
        let transit = ov req enq + ov send_us t1 in
        let queue = ov enq s_start in
        let service = ov s_start s_end in
        add 0 transit;
        add 1 queue;
        add 2 service;
        add 5 (dur - transit - queue - service)
      end
  end

let record_txn t ~latency_us ~comps =
  if t.enabled then begin
    let c = Array.copy comps in
    t.txns <- (latency_us, c) :: t.txns;
    Array.iteri (fun i v -> t.agg.(i) <- t.agg.(i) + v) c;
    t.n_txns <- t.n_txns + 1;
    t.latency_sum_us <- t.latency_sum_us + latency_us
  end

let txn_records t = List.rev t.txns

(* --- wasted work --------------------------------------------------------- *)

let note_busy t ~kind ~ver ~eid ~cost_us =
  if t.enabled && cost_us > 0 then begin
    (match Hashtbl.find_opt t.busy_by_kind kind with
    | Some r -> r := !r + cost_us
    | None -> Hashtbl.add t.busy_by_kind kind (ref cost_us));
    match ver with
    | None -> t.infra_us <- t.infra_us + cost_us
    | Some v ->
      let acc =
        match Hashtbl.find_opt t.busy_by_ver v with
        | Some a -> a
        | None ->
          let a = { v_total_us = 0; v_eids = Hashtbl.create 4 } in
          Hashtbl.add t.busy_by_ver v a;
          a
      in
      acc.v_total_us <- acc.v_total_us + cost_us;
      (match Hashtbl.find_opt acc.v_eids eid with
      | Some r -> r := !r + cost_us
      | None -> Hashtbl.add acc.v_eids eid (ref cost_us))
  end

let note_outcome t ~ver ~committed ~final_eid =
  if t.enabled then Hashtbl.replace t.outcomes ver (committed, final_eid)

let waste t =
  let useful = ref t.infra_us
  and salvaged = ref 0
  and discarded = ref 0 in
  Hashtbl.iter
    (fun ver acc ->
      match Hashtbl.find_opt t.outcomes ver with
      | Some (true, final_eid) ->
        Hashtbl.iter
          (fun eid us ->
            if eid = final_eid then useful := !useful + !us
            else salvaged := !salvaged + !us)
          acc.v_eids
      | Some (false, _) -> discarded := !discarded + acc.v_total_us
      (* Still in flight when the run's horizon hit: it never produced a
         committed transaction, so its cycles were spent for nothing. *)
      | None -> discarded := !discarded + acc.v_total_us)
    t.busy_by_ver;
  {
    w_useful_us = !useful;
    w_salvaged_us = !salvaged;
    w_discarded_us = !discarded;
    w_infra_us = t.infra_us;
    w_total_us = !useful + !salvaged + !discarded;
  }

let busy_by_kind t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.busy_by_kind []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- heatmap ------------------------------------------------------------- *)

let note_key t ~key ~conflicts ~reexecs ~aborts =
  if t.enabled then begin
    let a =
      match Hashtbl.find_opt t.keys key with
      | Some a -> a
      | None ->
        let a = { k_conflicts = 0; k_reexecs = 0; k_aborts = 0 } in
        Hashtbl.add t.keys key a;
        a
    in
    a.k_conflicts <- a.k_conflicts + conflicts;
    a.k_reexecs <- a.k_reexecs + reexecs;
    a.k_aborts <- a.k_aborts + aborts
  end

let hot_keys t n =
  let score a = a.k_conflicts + a.k_reexecs + a.k_aborts in
  let all = Hashtbl.fold (fun k a acc -> (k, a) :: acc) t.keys [] in
  let sorted =
    List.sort
      (fun (ka, a) (kb, b) ->
        let c = compare (score b) (score a) in
        if c <> 0 then c else compare ka kb)
      all
  in
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take n sorted

(* --- summaries ----------------------------------------------------------- *)

let comp_totals t =
  let out = Array.make n_comps 0 in
  Array.iteri (fun i v -> out.(i mod n_comps) <- out.(i mod n_comps) + v) t.agg;
  out

let dominant_component t =
  let totals = comp_totals t in
  let best = ref 0 in
  Array.iteri (fun i v -> if v > totals.(!best) then best := i) totals;
  comp_name !best

let n_txns t = t.n_txns
let decomposition t = Array.copy t.agg

(* --- deterministic JSON -------------------------------------------------- *)

let frac num den = if den <= 0 then 0. else float_of_int num /. float_of_int den

let to_json t =
  let b = Buffer.create 4096 in
  let str s = Json.str b s in
  let fld first name = Json.fld b first name in
  Buffer.add_char b '{';
  fld true "label";
  str t.label;
  fld false "committed_txns";
  Buffer.add_string b (string_of_int t.n_txns);
  fld false "latency_sum_us";
  Buffer.add_string b (string_of_int t.latency_sum_us);
  fld false "mean_latency_us";
  Buffer.add_string b (Printf.sprintf "%.2f" (frac t.latency_sum_us t.n_txns));
  (* per-phase decomposition, µs summed over committed transactions *)
  fld false "decomposition_us";
  Buffer.add_char b '{';
  for p = 0 to n_phases - 1 do
    fld (p = 0) (phase_name p);
    Buffer.add_char b '{';
    for c = 0 to n_comps - 1 do
      fld (c = 0) (comp_name c);
      Buffer.add_string b (string_of_int t.agg.((p * n_comps) + c))
    done;
    Buffer.add_char b '}'
  done;
  Buffer.add_char b '}';
  (* overall per-component fractions of total latency *)
  fld false "decomposition_frac";
  Buffer.add_char b '{';
  let totals = comp_totals t in
  for c = 0 to n_comps - 1 do
    fld (c = 0) (comp_name c);
    Buffer.add_string b (Printf.sprintf "%.6f" (frac totals.(c) t.latency_sum_us))
  done;
  Buffer.add_char b '}';
  fld false "dominant_component";
  str (dominant_component t);
  (* wasted-work account *)
  let w = waste t in
  fld false "wasted_work";
  Buffer.add_char b '{';
  fld true "busy_total_us";
  Buffer.add_string b (string_of_int w.w_total_us);
  fld false "useful_us";
  Buffer.add_string b (string_of_int w.w_useful_us);
  fld false "salvaged_us";
  Buffer.add_string b (string_of_int w.w_salvaged_us);
  fld false "discarded_us";
  Buffer.add_string b (string_of_int w.w_discarded_us);
  fld false "infra_us";
  Buffer.add_string b (string_of_int w.w_infra_us);
  fld false "useful_frac";
  Buffer.add_string b (Printf.sprintf "%.6f" (frac w.w_useful_us w.w_total_us));
  fld false "salvaged_frac";
  Buffer.add_string b (Printf.sprintf "%.6f" (frac w.w_salvaged_us w.w_total_us));
  fld false "discarded_frac";
  Buffer.add_string b
    (Printf.sprintf "%.6f" (frac w.w_discarded_us w.w_total_us));
  fld false "by_message_us";
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, us) ->
      fld (i = 0) k;
      Buffer.add_string b (string_of_int us))
    (busy_by_kind t);
  Buffer.add_char b '}';
  Buffer.add_char b '}';
  (* key-contention heatmap, hottest first *)
  fld false "hot_keys";
  Buffer.add_char b '[';
  List.iteri
    (fun i (k, a) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '{';
      fld true "key";
      str k;
      fld false "conflicts";
      Buffer.add_string b (string_of_int a.k_conflicts);
      fld false "reexecs";
      Buffer.add_string b (string_of_int a.k_reexecs);
      fld false "aborts";
      Buffer.add_string b (string_of_int a.k_aborts);
      Buffer.add_char b '}')
    (hot_keys t 10);
  Buffer.add_char b ']';
  Buffer.add_char b '}';
  Buffer.add_char b '\n';
  Buffer.contents b

let pp_summary ppf t =
  let w = waste t in
  Fmt.pf ppf "profile %s: %d committed txns, mean latency %.0f us@."
    t.label t.n_txns
    (frac t.latency_sum_us t.n_txns);
  Fmt.pf ppf "  latency decomposition (fraction of total):@.";
  let totals = comp_totals t in
  for c = 0 to n_comps - 1 do
    Fmt.pf ppf "    %-14s %6.1f%%@." (comp_name c)
      (100. *. frac totals.(c) t.latency_sum_us)
  done;
  Fmt.pf ppf
    "  busy cores: %d us total = %.1f%% useful + %.1f%% salvaged + %.1f%% \
     discarded (infra %d us)@."
    w.w_total_us
    (100. *. frac w.w_useful_us w.w_total_us)
    (100. *. frac w.w_salvaged_us w.w_total_us)
    (100. *. frac w.w_discarded_us w.w_total_us)
    w.w_infra_us;
  match hot_keys t 3 with
  | [] -> ()
  | hot ->
    Fmt.pf ppf "  hot keys:%a@."
      (Fmt.list ~sep:Fmt.nop (fun ppf (k, a) ->
           Fmt.pf ppf " %s(c%d/r%d/a%d)" k a.k_conflicts a.k_reexecs a.k_aborts))
      hot
