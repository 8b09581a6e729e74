type job = unit -> unit

type t = {
  parallelism : int;  (* requested --jobs value; 1 = inline *)
  deques : job Queue.t array;  (* deques.(w) owned by worker w *)
  m : Mutex.t;
  work_cv : Condition.t;  (* workers: new work or shutdown *)
  done_cv : Condition.t;  (* caller: a job finished *)
  mutable rr : int;  (* round-robin submission cursor *)
  mutable stop : bool;
  mutable domains : unit Domain.t array;
}

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let jobs t = t.parallelism

(* Pop from the worker's own deque, else steal from the nearest
   sibling's.  Caller holds [t.m]. *)
let take_job t w =
  let n = Array.length t.deques in
  let rec scan i =
    if i >= n then None
    else
      let v = (w + i) mod n in
      if Queue.is_empty t.deques.(v) then scan (i + 1)
      else Some (Queue.pop t.deques.(v))
  in
  scan 0

let worker t w =
  let rec loop () =
    Mutex.lock t.m;
    let rec get () =
      match take_job t w with
      | Some _ as j -> j
      | None ->
        if t.stop then None
        else begin
          Condition.wait t.work_cv t.m;
          get ()
        end
    in
    let j = get () in
    Mutex.unlock t.m;
    match j with
    | None -> ()
    | Some j ->
      (* The job itself never raises: [map] wraps the user function and
         files the outcome, success or exception, in the mailbox. *)
      j ();
      Mutex.lock t.m;
      Condition.broadcast t.done_cv;
      Mutex.unlock t.m;
      loop ()
  in
  loop ()

let create ~jobs =
  let parallelism = max 1 jobs in
  let n_workers = if parallelism > 1 then parallelism else 0 in
  let t =
    {
      parallelism;
      deques = Array.init (max 1 n_workers) (fun _ -> Queue.create ());
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      rr = 0;
      stop = false;
      domains = [||];
    }
  in
  if n_workers > 0 then
    t.domains <- Array.init n_workers (fun w -> Domain.spawn (fun () -> worker t w));
  t

let map_serial ~on_ready f items =
  List.mapi
    (fun i x ->
      let y = f x in
      on_ready i y;
      y)
    items

let map ?(on_ready = fun _ _ -> ()) t f items =
  if items = [] then []
  else if Array.length t.domains = 0 then map_serial ~on_ready f items
  else begin
    let n = List.length items in
    let mailbox : ('b, exn) result Merge.t = Merge.create n in
    Mutex.lock t.m;
    List.iteri
      (fun i x ->
        let run () =
          let r = try Ok (f x) with e -> Error e in
          Mutex.lock t.m;
          Merge.offer mailbox i r;
          Mutex.unlock t.m
        in
        Queue.push run t.deques.(t.rr);
        t.rr <- (t.rr + 1) mod Array.length t.deques)
      items;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.m;
    (* Merge loop: release the contiguous prefix as it forms, firing
       [on_ready] outside the lock, in index order, on this domain. *)
    let delivered = ref 0 in
    while !delivered < n do
      Mutex.lock t.m;
      while Merge.ready mailbox <= !delivered do
        Condition.wait t.done_cv t.m
      done;
      let batch = Merge.take_ready mailbox in
      Mutex.unlock t.m;
      List.iter
        (fun (i, r) ->
          incr delivered;
          match r with Ok y -> on_ready i y | Error _ -> ())
        batch
    done;
    (* Everything completed exactly once; surface the lowest-indexed
       failure deterministically, else the in-order results. *)
    let first_err = ref None in
    for i = n - 1 downto 0 do
      match Merge.get mailbox i with
      | Some (Error e) -> first_err := Some e
      | Some (Ok _) -> ()
      | None -> assert false
    done;
    match !first_err with
    | Some e -> raise e
    | None ->
      List.init n (fun i ->
          match Merge.get mailbox i with
          | Some (Ok y) -> y
          | Some (Error _) | None -> assert false)
  end

let shutdown t =
  if Array.length t.domains > 0 then begin
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.work_cv;
    Mutex.unlock t.m;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end
