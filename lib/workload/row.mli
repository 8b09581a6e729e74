(** Tiny row codec: table rows are stored as ['|']-separated field
    lists inside the key-value store.  Fields must not contain ['|'];
    the TPC-C generator only produces alphanumeric fields.  Encoding
    and decoding equal [String.concat "|"] and [String.split_on_char
    '|'] but build no lists. *)

type t = string array

val encode : t -> string

val decode : string -> t
(** [decode ""] is the empty row (absent record). *)

val is_absent : string -> bool

val get : t -> int -> string

val get_int : t -> int -> int

val field_int : string -> int -> int
(** [field_int s i] is [get_int (decode s) i], read in place from the
    encoded row without decoding it.  [i] must be non-negative. *)

val set : t -> int -> string -> t
(** Functional update (copies). *)

val set_int : t -> int -> int -> t

val add_int : t -> int -> int -> t
(** [add_int row i delta] increments an integer field. *)
