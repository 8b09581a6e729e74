(** Decimal ints and separated fields, written and read in one pass.

    The workloads build a key on every operation and parse a row on
    most, and a re-executing system replays that work, so these avoid
    [Printf], [string_of_int]'s format parsing, intermediate [^]
    strings and [String.split_on_char]'s lists.  Every function equals
    the [Stdlib] form named in its comment on every input. *)

val to_string : int -> string
(** [string_of_int n], [min_int] and negatives included. *)

val cat1 : string -> int -> string
(** [cat1 p a] is [p ^ string_of_int a]. *)

val cat2 : char -> string -> int -> int -> string
(** [cat2 sep p a b] is [p ^ string_of_int a ^ sep ^ string_of_int b]. *)

val cat3 : char -> string -> int -> int -> int -> string
(** As {!cat2}, with three ints. *)

val cat4 : char -> string -> int -> int -> int -> int -> string
(** As {!cat2}, with four ints. *)

val index_or_end : string -> int -> char -> int
(** [index_or_end s pos c] is the index of the first [c] at or after
    [pos], or [String.length s] if there is none. *)

val digits : string -> int -> int -> int
(** [digits s pos len] is the value of [String.sub s pos len] when that
    is a run of 1 to 18 ASCII digits (too short to overflow), and [-1]
    otherwise, including for a range outside [s]. *)

val int_of_sub : string -> int -> int -> int
(** [int_of_sub s pos len] is [int_of_string_opt (String.sub s pos len)],
    read as [0] when [None]: {!digits} when it applies, else the
    [Stdlib] parser (signs, [0x], [_], overflow). *)

val int_or_zero : string -> int
(** [int_of_sub s 0 (String.length s)]. *)
