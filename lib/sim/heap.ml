(* Struct-of-arrays storage: the keys live in two unboxed [int] arrays,
   so a sift compares plain ints and never follows a pointer; values move
   only when their slot changes.  Sifts move a hole instead of swapping.

   Slots in [size, capacity) hold [filler], the value whose push first
   sized the arrays: fresh capacity is filled with it, and every slot a
   removal vacates is pointed back at it.  So at most that one value can
   stay reachable after it leaves the heap. *)
type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable filler : 'a option;
  mutable size : int;
  mutable max_size : int;
}

let create () =
  { times = [||]; seqs = [||]; vals = [||]; filler = None; size = 0; max_size = 0 }

let length t = t.size
let max_size t = t.max_size
let is_empty t = t.size = 0

let grow t v =
  let cap = Array.length t.times in
  let filler = match t.filler with Some f -> f | None -> v in
  let cap' = if cap = 0 then 16 else cap * 2 in
  let times = Array.make cap' 0 and seqs = Array.make cap' 0 in
  let vals = Array.make cap' filler in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.vals <- vals;
  t.filler <- Some filler

let push t ~time ~seq v =
  if t.size = Array.length t.times then grow t v;
  let times = t.times and seqs = t.seqs and vals = t.vals in
  let i = ref t.size in
  t.size <- t.size + 1;
  if t.size > t.max_size then t.max_size <- t.size;
  (* Sift up: move parents down into the hole while the new key is
     strictly smaller. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = Array.unsafe_get times p in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs p) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set vals !i (Array.unsafe_get vals p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i v

let min_time t =
  if t.size = 0 then invalid_arg "Heap.min_time: empty heap";
  Array.unsafe_get t.times 0

let remove_min t =
  if t.size = 0 then invalid_arg "Heap.remove_min: empty heap";
  let times = t.times and seqs = t.seqs and vals = t.vals in
  let min = Array.unsafe_get vals 0 in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* Sift the last entry down from the root: move the smaller child
       (the left one on a tie) up into the hole while it is strictly
       smaller than the entry. *)
    let time = Array.unsafe_get times n and seq = Array.unsafe_get seqs n in
    let v = Array.unsafe_get vals n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n
             && (let rt = Array.unsafe_get times r
                 and lt = Array.unsafe_get times l in
                 rt < lt
                 || (rt = lt && Array.unsafe_get seqs r < Array.unsafe_get seqs l))
          then r
          else l
        in
        let ct = Array.unsafe_get times c in
        if ct < time || (ct = time && Array.unsafe_get seqs c < seq) then begin
          Array.unsafe_set times !i ct;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set vals !i (Array.unsafe_get vals c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set vals !i v
  end;
  (match t.filler with Some f -> Array.unsafe_set vals n f | None -> ());
  min

let pop t =
  if t.size = 0 then None
  else
    let time = Array.unsafe_get t.times 0 and seq = Array.unsafe_get t.seqs 0 in
    Some (time, seq, remove_min t)

let peek_time t = if t.size = 0 then None else Some (Array.unsafe_get t.times 0)
