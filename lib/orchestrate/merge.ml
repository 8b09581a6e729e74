type 'a t = {
  slots : 'a option array;
  mutable filled : int;
  mutable ready : int;  (* contiguous prefix present *)
  mutable taken : int;  (* prefix already handed out by take_ready *)
}

let create n =
  if n < 0 then invalid_arg "Merge.create: negative capacity";
  { slots = Array.make n None; filled = 0; ready = 0; taken = 0 }

let capacity t = Array.length t.slots

let offer t i v =
  let n = Array.length t.slots in
  if i < 0 || i >= n then
    invalid_arg (Printf.sprintf "Merge.offer: index %d out of range [0,%d)" i n);
  (match t.slots.(i) with
  | Some _ -> invalid_arg (Printf.sprintf "Merge.offer: index %d filed twice" i)
  | None -> ());
  t.slots.(i) <- Some v;
  t.filled <- t.filled + 1;
  (* advance the released prefix over every newly-contiguous slot *)
  while
    t.ready < n && (match t.slots.(t.ready) with Some _ -> true | None -> false)
  do
    t.ready <- t.ready + 1
  done

let filled t = t.filled

let ready t = t.ready

let take_ready t =
  let out = ref [] in
  while t.taken < t.ready do
    (match t.slots.(t.taken) with
    | Some v -> out := (t.taken, v) :: !out
    | None -> assert false);
    t.taken <- t.taken + 1
  done;
  List.rev !out

let get t i =
  if i < 0 || i >= Array.length t.slots then None else t.slots.(i)

let complete t = t.filled = Array.length t.slots
