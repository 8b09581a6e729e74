type t = string array

let encode t =
  match Array.length t with
  | 0 -> ""
  | 1 -> t.(0)
  | n ->
    let len = Array.fold_left (fun acc f -> acc + String.length f) (n - 1) t in
    let b = Bytes.create len in
    let pos = ref 0 in
    Array.iteri
      (fun i f ->
        if i > 0 then begin
          Bytes.set b !pos '|';
          incr pos
        end;
        Bytes.blit_string f 0 b !pos (String.length f);
        pos := !pos + String.length f)
      t;
    Bytes.unsafe_to_string b

let decode s =
  if String.equal s "" then [||]
  else begin
    let n = ref 1 in
    String.iter (fun c -> if c = '|' then incr n) s;
    let t = Array.make !n "" in
    let start = ref 0 in
    for i = 0 to !n - 1 do
      let stop = Dec.index_or_end s !start '|' in
      t.(i) <- String.sub s !start (stop - !start);
      start := stop + 1
    done;
    t
  end

let is_absent s = String.equal s ""

let get t i = if i < Array.length t then t.(i) else ""

let get_int t i = Dec.int_or_zero (get t i)

(* Where field [i] starts: after the [i]-th ['|'], or -1 if [s] has
   fewer fields. *)
let rec field_start s len pos i =
  if i = 0 then pos
  else
    let sep = Dec.index_or_end s pos '|' in
    if sep >= len then -1 else field_start s len (sep + 1) (i - 1)

let field_int s i =
  if i < 0 then invalid_arg "Row.field_int";
  let len = String.length s in
  (* The empty row has no fields; a missing field reads as 0, as [get]
     makes it. *)
  let a = if len = 0 then -1 else field_start s len 0 i in
  if a < 0 then 0 else Dec.int_of_sub s a (Dec.index_or_end s a '|' - a)

let set t i v = t.(i) <- v

let set_int t i v = set t i (Dec.to_string v)

let add_int t i delta = set_int t i (get_int t i + delta)
