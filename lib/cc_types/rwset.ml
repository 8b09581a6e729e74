type read = { key : string; r_ver : Version.t; r_val : string }

type write = { key : string; w_val : string }

type read_set = read list

type write_set = write list

let pp_read ppf (r : read) = Fmt.pf ppf "r(%s@%a)" r.key Version.pp r.r_ver

let pp_write ppf (w : write) = Fmt.pf ppf "w(%s)" w.key

let read_of_key rs key = List.find_opt (fun (r : read) -> String.equal r.key key) rs

let write_of_key ws key =
  List.fold_left
    (fun acc (w : write) -> if String.equal w.key key then Some w else acc)
    None ws

(* Write sets hold a handful of keys, so scanning the list beats
   building tables: each key stays at its first position, with the value
   of its last write. *)
let dedup_writes ws =
  let rec go acc = function
    | [] -> List.rev acc
    | (w : write) :: rest ->
      if List.exists (fun (x : write) -> String.equal x.key w.key) acc then go acc rest
      else
        let w =
          match write_of_key rest w.key with
          | Some last -> { w with w_val = last.w_val }
          | None -> w
        in
        go (w :: acc) rest
  in
  go [] ws
