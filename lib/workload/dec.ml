(* Digits are produced from the non-positive value (-|n|), so min_int,
   whose absolute value has no int, needs no special case: for m <= 0,
   [m mod 10] is in [-9, 0]. *)

let length n =
  let rec go m len = if m > -10 then len else go (m / 10) (len + 1) in
  if n < 0 then go n 2 else go (-n) 1

(* Loops are top-level functions: a local one would close over its
   buffer and be allocated on every call. *)
let rec put_digits b m i =
  Bytes.set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then put_digits b (m / 10) (i - 1)

(* Writes the [len] characters of [n] ([len = length n]) at [pos]. *)
let put b pos len n =
  if n < 0 then begin
    Bytes.set b pos '-';
    put_digits b n (pos + len - 1)
  end
  else put_digits b (-n) (pos + len - 1)

let to_string n =
  let len = length n in
  let b = Bytes.create len in
  put b 0 len n;
  Bytes.unsafe_to_string b

(* [p ^ a ^ sep ^ b ^ ...] into one buffer of the exact length. *)

(* A buffer [extra] bytes longer than [p ^ a], holding [p ^ a]. *)
let start p la a extra =
  let lp = String.length p in
  let b = Bytes.create (lp + la + extra) in
  Bytes.blit_string p 0 b 0 lp;
  put b lp la a;
  b

(* Writes [sep] and then [n] ([len = length n]) at [pos]; returns the
   end. *)
let put_sep b pos sep len n =
  Bytes.set b pos sep;
  put b (pos + 1) len n;
  pos + 1 + len

let cat1 p a = Bytes.unsafe_to_string (start p (length a) a 0)

let cat2 sep p a c =
  let la = length a and lc = length c in
  let b = start p la a (1 + lc) in
  ignore (put_sep b (String.length p + la) sep lc c);
  Bytes.unsafe_to_string b

let cat3 sep p a c d =
  let la = length a and lc = length c and ld = length d in
  let b = start p la a (2 + lc + ld) in
  let pos = put_sep b (String.length p + la) sep lc c in
  ignore (put_sep b pos sep ld d);
  Bytes.unsafe_to_string b

let cat4 sep p a c d e =
  let la = length a and lc = length c and ld = length d and le = length e in
  let b = start p la a (3 + lc + ld + le) in
  let pos = put_sep b (String.length p + la) sep lc c in
  let pos = put_sep b pos sep ld d in
  ignore (put_sep b pos sep le e);
  Bytes.unsafe_to_string b

(* --- Reading ------------------------------------------------------------- *)

let rec index_from s len i c =
  if i >= len || String.get s i = c then i else index_from s len (i + 1) c

let index_or_end s pos c = index_from s (String.length s) pos c

let rec digits_from s i stop acc =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as ch -> digits_from s (i + 1) stop ((acc * 10) + (Char.code ch - 48))
    | _ -> -1

(* At most 18 digits: 10^18 - 1 < max_int, so the sum cannot overflow. *)
let digits s pos len =
  if len < 1 || len > 18 || pos < 0 || pos > String.length s - len then -1
  else digits_from s pos (pos + len) 0

let int_of_sub s pos len =
  let n = digits s pos len in
  if n >= 0 then n
  else match int_of_string_opt (String.sub s pos len) with Some n -> n | None -> 0

let int_or_zero s = int_of_sub s 0 (String.length s)
