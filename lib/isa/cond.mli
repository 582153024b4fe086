(** Branch conditions over the NZCV flags. *)

type t =
  | Al  (** always *)
  | Eq  (** Z *)
  | Ne  (** not Z *)
  | Lt  (** signed less: N <> V *)
  | Ge  (** signed greater-equal: N = V *)
  | Gt  (** signed greater: not Z and N = V *)
  | Le  (** signed less-equal: Z or N <> V *)
  | Lo  (** unsigned lower: not C *)
  | Hs  (** unsigned higher-same: C *)
  | Mi  (** N *)
  | Pl  (** not N *)

type flags = { n : bool; z : bool; c : bool; v : bool }

val initial_flags : flags

val holds : t -> flags -> bool

val all : t list

val to_int : t -> int
val of_int : int -> t option
val to_string : t -> string
