(* Chrome trace_event JSON ("JSON Object Format"), loadable directly in
   Perfetto / chrome://tracing.  Written by hand so we stay inside the
   container's dependency set; the emitted structure is small enough
   that a Buffer-based printer is clearer than a generic serializer
   anyway. *)

let add_string = Json.str
let add_float = Json.float

let add_arg buf (k, v) =
  add_string buf k;
  Buffer.add_char buf ':';
  match v with
  | Sink.I i -> Buffer.add_string buf (string_of_int i)
  | Sink.S s -> add_string buf s
  | Sink.F f -> add_float buf f

let add_event buf (e : Sink.event) =
  Buffer.add_string buf "{\"name\":";
  add_string buf e.ev_name;
  Buffer.add_string buf ",\"cat\":";
  add_string buf e.ev_cat;
  (match e.ev_ph with
  | Sink.Complete ->
    Buffer.add_string buf ",\"ph\":\"X\",\"dur\":";
    Buffer.add_string buf (string_of_int e.ev_dur)
  | Sink.Instant -> Buffer.add_string buf ",\"ph\":\"i\",\"s\":\"t\""
  | Sink.Flow_start id ->
    Buffer.add_string buf ",\"ph\":\"s\",\"id\":";
    Buffer.add_string buf (string_of_int id)
  | Sink.Flow_finish id ->
    (* bp:"e" binds the arrow head to the enclosing slice, the
       convention Perfetto expects for flow terminations. *)
    Buffer.add_string buf ",\"ph\":\"f\",\"bp\":\"e\",\"id\":";
    Buffer.add_string buf (string_of_int id));
  Buffer.add_string buf ",\"ts\":";
  Buffer.add_string buf (string_of_int e.ev_ts);
  Buffer.add_string buf ",\"pid\":";
  Buffer.add_string buf (string_of_int e.ev_pid);
  Buffer.add_string buf ",\"tid\":0";
  (match e.ev_args with
  | [] -> ()
  | args ->
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_char buf ',';
        add_arg buf a)
      args;
    Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let to_json ?window sink =
  let keep =
    match window with
    | None -> fun _ -> true
    | Some (t0, t1) ->
      fun (e : Sink.event) -> e.ev_ts + e.ev_dur >= t0 && e.ev_ts <= t1
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"seed\":";
  Buffer.add_string buf (string_of_int (Sink.seed sink));
  (match window with
  | None -> ()
  | Some (t0, t1) ->
    Buffer.add_string buf (Printf.sprintf ",\"window_us\":[%d,%d]" t0 t1));
  Buffer.add_string buf "},\"traceEvents\":[\n";
  let first = ref true in
  List.iter
    (fun e ->
      if keep e then begin
        if not !first then Buffer.add_string buf ",\n";
        first := false;
        add_event buf e
      end)
    (Sink.events sink);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
