type t = Commit | Abandon

let to_string = function Commit -> "commit" | Abandon -> "abandon"
let pp ppf d = Fmt.string ppf (to_string d)

let equal a b =
  match (a, b) with
  | Commit, Commit | Abandon, Abandon -> true
  | (Commit | Abandon), _ -> false
