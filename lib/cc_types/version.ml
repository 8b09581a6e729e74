type t = { ts : int; id : int }

let make ~ts ~id = { ts; id }

let zero = { ts = min_int; id = min_int }

let compare a b =
  let c = Int.compare a.ts b.ts in
  if c <> 0 then c else Int.compare a.id b.id

let equal a b = compare a b = 0

let ( < ) a b = compare a b < 0

let ( <= ) a b = compare a b <= 0

let is_zero v = equal v zero

let pp ppf v =
  if is_zero v then Fmt.string ppf "v0" else Fmt.pf ppf "v(%d,%d)" v.ts v.id

let to_string v = Fmt.str "%a" pp v

let to_pair v = if is_zero v then (0, 0) else (v.ts, v.id)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

(* The record is a block of tag 0 holding [ts] and [id], the same shape
   as the pair [(v.ts, v.id)], so it hashes alike without building one. *)
let hash (v : t) = Hashtbl.hash v
