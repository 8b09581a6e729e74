(* Keys and values are stored apart.  Each queued value lives in a slot
   of the [slab]: written by [push], reset to [vacant] once by
   [remove_min], never moved in between.  The heap proper is three
   unboxed [int] arrays indexed by heap position -- [times], [seqs] and
   [slots] (the slab slot of the entry) -- so a sift compares and moves
   plain ints, follows no pointer and triggers no write barrier.  Sifts
   move a hole instead of swapping.

   [slots] is a permutation of [0, capacity): positions [0, size) name
   the occupied slots in heap order, positions [size, capacity) are the
   stack of free slots, its top at [size].  A push takes the slot at
   [size]; a removal pushes the freed slot back at the new [size].

   Free slots hold [vacant], an immediate, so no value stays reachable
   after it leaves the heap.  An immediate filler also lets [grow]'s
   [Array.make] allocate a large slab directly in the major heap: a
   young block as filler would first force a minor collection. *)
type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable slab : 'a array;
  mutable size : int;
  mutable max_size : int;
}

(* Only ever stored in free slots, which are never read as ['a]. *)
let vacant () : 'a = Obj.magic 0

let create () =
  { times = [||]; seqs = [||]; slots = [||]; slab = [||]; size = 0; max_size = 0 }

let length t = t.size
let max_size t = t.max_size
let is_empty t = t.size = 0

(* Called only when every slot is occupied ([size = capacity]), so the
   new slots [cap, cap') are exactly the new free stack. *)
let grow t =
  let cap = Array.length t.times in
  let cap' = if cap = 0 then 16 else cap * 2 in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.slab <- extend t.slab (vacant ());
  for s = cap to cap' - 1 do
    Array.unsafe_set t.slots s s
  done

let push_slot t ~time ~seq v =
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let i = ref t.size in
  let slot = Array.unsafe_get slots !i in
  Array.unsafe_set t.slab slot v;
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
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot;
  slot

let push t ~time ~seq v = ignore (push_slot t ~time ~seq v : int)

let replace_slot t slot v =
  if slot < 0 || slot >= Array.length t.slab then invalid_arg "Heap.replace_slot";
  Array.unsafe_set t.slab slot v

let min_time t =
  if t.size = 0 then invalid_arg "Heap.min_time: empty heap";
  Array.unsafe_get t.times 0

let min_seq t =
  if t.size = 0 then invalid_arg "Heap.min_seq: empty heap";
  Array.unsafe_get t.seqs 0

let min_slot t =
  if t.size = 0 then invalid_arg "Heap.min_slot: empty heap";
  Array.unsafe_get t.slots 0

let remove_min t =
  if t.size = 0 then invalid_arg "Heap.remove_min: empty heap";
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let freed = Array.unsafe_get slots 0 in
  let min = Array.unsafe_get t.slab freed in
  Array.unsafe_set t.slab freed (vacant ());
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* Sift the last entry down from the root: move the smaller child
       (the left one on a tie) up into the hole while it is strictly
       smaller than the entry. *)
    let time = Array.unsafe_get times n and seq = Array.unsafe_get seqs n in
    let slot = Array.unsafe_get slots n in
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
          Array.unsafe_set slots !i (Array.unsafe_get slots c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i slot
  end;
  Array.unsafe_set slots n freed;
  min

let pop t =
  if t.size = 0 then None
  else
    let time = Array.unsafe_get t.times 0 and seq = Array.unsafe_get t.seqs 0 in
    Some (time, seq, remove_min t)

let peek_time t = if t.size = 0 then None else Some (Array.unsafe_get t.times 0)
