type region = Us_east_1 | Us_west_1 | Us_west_2 | Eu_west_1 | Az of int

type setup = Reg | Con | Glo

(* Monomorphic, so [rtt_us] on every message send avoids the polymorphic
   [caml_equal] call that [Az i] blocks would otherwise cost. *)
let equal_region a b =
  match (a, b) with
  | Az i, Az j -> Int.equal i j
  | Us_east_1, Us_east_1 | Us_west_1, Us_west_1 | Us_west_2, Us_west_2
  | Eu_west_1, Eu_west_1 ->
    true
  | (Us_east_1 | Us_west_1 | Us_west_2 | Eu_west_1 | Az _), _ -> false

let region_name = function
  | Us_east_1 -> "us-east-1"
  | Us_west_1 -> "us-west-1"
  | Us_west_2 -> "us-west-2"
  | Eu_west_1 -> "eu-west-1"
  | Az i -> Printf.sprintf "az-%d" i

let setup_name = function Reg -> "REG" | Con -> "CON" | Glo -> "GLO"

let setup_of_string s =
  match String.uppercase_ascii s with
  | "REG" -> Some Reg
  | "CON" -> Some Con
  | "GLO" -> Some Glo
  | _ -> None

let regions = function
  | Reg -> [| Az 0; Az 1; Az 2 |]
  | Con -> [| Us_east_1; Us_west_1; Us_west_2 |]
  | Glo -> [| Us_east_1; Us_west_1; Eu_west_1 |]

let ms n = n * 1000

(* Cross-region RTTs from Table 2 (AWS measurements).  The measured
   matrix is symmetric, so normalise each pair to a canonical order. *)
let rank = function
  | Us_east_1 -> 0
  | Us_west_1 -> 1
  | Us_west_2 -> 2
  | Eu_west_1 -> 3
  | Az i -> 4 + i

let aws_rtt_ms a b =
  if equal_region a b then 0
  else
    let a, b = if rank a <= rank b then (a, b) else (b, a) in
    match (a, b) with
    | Us_east_1, Us_west_1 -> 62
    | Us_east_1, Us_west_2 -> 68
    | Us_east_1, Eu_west_1 -> 68
    | Us_west_1, Us_west_2 -> 22
    | Us_west_1, Eu_west_1 -> 138
    | Us_west_2, Eu_west_1 -> 128
    | (Us_east_1 | Us_west_1 | Us_west_2 | Eu_west_1 | Az _), _ -> 10

let rtt_us setup a b =
  if equal_region a b then 0
  else
    match setup with
    | Reg -> ms 10
    | Con | Glo -> ms (aws_rtt_ms a b)

let one_way_us setup a b = rtt_us setup a b / 2

let table2 =
  let cols = [ Us_east_1; Us_west_1; Us_west_2; Eu_west_1 ] in
  let row a = (region_name a, List.map (fun b -> (region_name b, aws_rtt_ms a b)) cols) in
  [ row Us_east_1; row Us_west_1 ]
