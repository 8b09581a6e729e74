module Version = Cc_types.Version

type txn = {
  ver : Version.t;
  reads : (string * Version.t) list;
  writes : string list;
  committed : bool;
  start_us : int;
  commit_us : int;
}

type t = { by_ver : txn Version.Map.t }

let empty = { by_ver = Version.Map.empty }

let add t txn =
  if Version.Map.mem txn.ver t.by_ver then
    invalid_arg
      (Fmt.str "History.add: duplicate transaction %a" Version.pp txn.ver);
  { by_ver = Version.Map.add txn.ver txn t.by_ver }

let of_list l = List.fold_left add empty l

let txns t = List.map snd (Version.Map.bindings t.by_ver)

(* Visits [by_ver] newest first, so consing onto [acc] yields a list in
   version order without materialising [txns]. *)
let fold_newest_first f t =
  Seq.fold_left (fun acc (_, txn) -> f txn acc) [] (Version.Map.to_rev_seq t.by_ver)

let committed t =
  fold_newest_first (fun txn acc -> if txn.committed then txn :: acc else acc) t

let find t ver = Version.Map.find_opt ver t.by_ver

let version_order t key =
  fold_newest_first
    (fun txn acc ->
      if txn.committed && List.exists (String.equal key) txn.writes then
        txn.ver :: acc
      else acc)
    t

let pp ppf t =
  let pp_txn ppf txn =
    Fmt.pf ppf "%a %s reads=[%a] writes=[%a]" Version.pp txn.ver
      (if txn.committed then "C" else "A")
      Fmt.(list ~sep:comma (pair ~sep:(any "@") string Version.pp))
      txn.reads
      Fmt.(list ~sep:comma string)
      txn.writes
  in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_txn) (txns t)
