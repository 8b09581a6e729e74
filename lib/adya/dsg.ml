module Version = Cc_types.Version

type edge_kind = Wr | Ww | Rw

type edge = { src : Version.t; dst : Version.t; kind : edge_kind; key : string }

type violation =
  | Aborted_read of { reader : Version.t; writer : Version.t; key : string }
  | Cycle of edge list

let pp_kind ppf = function
  | Wr -> Fmt.string ppf "wr"
  | Ww -> Fmt.string ppf "ww"
  | Rw -> Fmt.string ppf "rw"

let pp_edge ppf e =
  Fmt.pf ppf "%a -%a(%s)-> %a" Version.pp e.src pp_kind e.kind e.key Version.pp
    e.dst

let pp_violation ppf = function
  | Aborted_read { reader; writer; key } ->
    Fmt.pf ppf "G1a: committed %a read %s from non-committed %a" Version.pp
      reader key Version.pp writer
  | Cycle edges ->
    Fmt.pf ppf "cycle: @[<h>%a@]" Fmt.(list ~sep:(any " ; ") pp_edge) edges

(* (key, writer) pairs, for the successor table below. *)
module Key_ver = Hashtbl.Make (struct
  type t = string * Version.t

  let equal (k1, v1) (k2, v2) = Version.equal v1 v2 && String.equal k1 k2
  let hash (k, v) = Hashtbl.hash k + (31 * Version.hash v)
end)

(* One pass over [committed] (in version order) indexes every key's
   committed installers; ww edges come from consecutive installers and
   each read's rw edge is a single lookup.  The key table's fold order
   fixes the edge order, and with it the DFS order and the cycle a
   violation reports (printed in the explorer's reproducers and pinned
   by golden tests): keep its [create 64] and one [replace] per key
   named in a committed [writes], in version order. *)
let edges_of committed =
  let acc = ref [] in
  let emit src dst kind key =
    if not (Version.equal src dst) then acc := { src; dst; kind; key } :: !acc
  in
  (* Each key's installers, newest first; a txn naming a key twice in
     [writes] is counted once. *)
  let keys = Hashtbl.create 64 in
  List.iter
    (fun (txn : History.txn) ->
      List.iter
        (fun k ->
          let installers =
            match Hashtbl.find_opt keys k with
            | Some (last :: _ as l) when Version.equal last txn.ver -> l
            | Some l -> txn.ver :: l
            | None -> [ txn.ver ]
          in
          Hashtbl.replace keys k installers)
        txn.writes)
    committed;
  (* [Version.zero] implicitly precedes every key's first installer. *)
  let first = Hashtbl.create 64 in
  let succ = Key_ver.create 256 in
  (* ww edges: consecutive versions in each key's version order. *)
  List.iter
    (fun (key, newest_first) ->
      match List.rev newest_first with
      | [] -> ()
      | v0 :: _ as order ->
        Hashtbl.replace first key v0;
        let rec consecutive = function
          | a :: (b :: _ as rest) ->
            emit a b Ww key;
            Key_ver.replace succ (key, a) b;
            consecutive rest
          | [ _ ] | [] -> ()
        in
        consecutive order)
    (Hashtbl.fold (fun k l acc -> (k, l) :: acc) keys []);
  (* wr and rw edges from each committed read. *)
  List.iter
    (fun (txn : History.txn) ->
      List.iter
        (fun (key, writer) ->
          if not (Version.is_zero writer) then emit writer txn.ver Wr key;
          (* rw: the installer of the version immediately after [writer]
             in the version order anti-depends on this reader. *)
          let next =
            if Version.is_zero writer then Hashtbl.find_opt first key
            else Key_ver.find_opt succ (key, writer)
          in
          match next with
          | Some nxt -> emit txn.ver nxt Rw key
          | None -> ())
        txn.reads)
    committed;
  !acc

let edges h = edges_of (History.committed h)

let check h =
  let committed = History.committed h in
  (* G1a: aborted reads. *)
  let g1a =
    List.find_map
      (fun (txn : History.txn) ->
        List.find_map
          (fun (key, writer) ->
            if Version.is_zero writer then None
            else
              match History.find h writer with
              | Some w when w.committed -> None
              | Some _ | None ->
                Some (Aborted_read { reader = txn.ver; writer; key }))
          txn.reads)
      committed
  in
  match g1a with
  | Some v -> Error v
  | None ->
    (* Cycle detection: DFS over the adjacency map. *)
    let es = edges_of committed in
    let adj = Hashtbl.create 64 in
    List.iter
      (fun e ->
        let cur = try Hashtbl.find adj e.src with Not_found -> [] in
        Hashtbl.replace adj e.src (e :: cur))
      es;
    let color = Hashtbl.create 64 in
    (* 0 = white (absent), 1 = grey, 2 = black. *)
    let exception Found of edge list in
    let rec dfs path v =
      Hashtbl.replace color v 1;
      List.iter
        (fun e ->
          match Hashtbl.find_opt color e.dst with
          | Some 1 ->
            (* Back edge: the cycle is the suffix of the root-to-here path
               starting at the first edge leaving [e.dst], plus [e]. *)
            let fwd = List.rev (e :: path) in
            let rec drop = function
              | [] -> []
              | (e' : edge) :: rest ->
                if Version.equal e'.src e.dst then e' :: rest else drop rest
            in
            raise (Found (drop fwd))
          | Some _ -> ()
          | None -> dfs (e :: path) e.dst)
        (try Hashtbl.find adj v with Not_found -> []);
      Hashtbl.replace color v 2
    in
    (try
       List.iter
         (fun (txn : History.txn) ->
           if not (Hashtbl.mem color txn.ver) then dfs [] txn.ver)
         committed;
       Ok ()
     with Found cycle -> Error (Cycle cycle))

let is_serializable h = match check h with Ok () -> true | Error _ -> false
