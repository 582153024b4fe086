(** Subword manipulation on machine words.

    The What's Next architecture processes data at subword granularity:
    a [w]-bit word is split into [w / bits] subwords of [bits] bits each,
    numbered from 0 (least significant) upward.  All values are unsigned
    bit patterns carried in OCaml [int]s; words are at most 32 bits. *)

val mask : int -> int
(** [mask bits] is the all-ones pattern of width [bits].
    Raises [Invalid_argument] unless [0 < bits <= 62]. *)

val truncate : bits:int -> int -> int
(** [truncate ~bits v] keeps the low [bits] bits of [v]. *)

val count : bits:int -> width:int -> int
(** [count ~bits ~width] is the number of [bits]-wide subwords in a
    [width]-bit word.  Raises [Invalid_argument] if [bits] does not divide
    [width]. *)

val extract : bits:int -> pos:int -> int -> int
(** [extract ~bits ~pos v] is the subword of width [bits] at position
    [pos] (0 = least significant) of [v]. *)

val insert : bits:int -> pos:int -> into:int -> int -> int
(** [insert ~bits ~pos ~into sub] replaces the subword at [pos] of [into]
    with the low [bits] bits of [sub]. *)

val split : bits:int -> width:int -> int -> int list
(** [split ~bits ~width v] lists the subwords of [v], most significant
    first — the order in which WN processes them. *)

val combine : bits:int -> int list -> int
(** [combine ~bits subs] reassembles subwords listed most significant
    first.  Inverse of {!split}. *)

val sign_extend : bits:int -> int -> int
(** [sign_extend ~bits v] interprets the low [bits] bits of [v] as a
    two's-complement value and returns it as an OCaml int. *)

val to_signed : bits:int -> int -> int
(** Alias for {!sign_extend}. *)

val of_signed : bits:int -> int -> int
(** [of_signed ~bits v] is the [bits]-wide two's-complement pattern of
    [v] (the inverse of {!to_signed} for in-range values). *)

val lanes_add : lane_bits:int -> width:int -> int -> int -> int
(** [lanes_add ~lane_bits ~width a b] adds [a] and [b] as vectors of
    independent [lane_bits]-wide lanes: carries do not propagate across
    lane boundaries.  This models the WN adder of Figure 8 whose
    carry-chain muxes inject zeroes at lane boundaries. *)

val lanes_sub : lane_bits:int -> width:int -> int -> int -> int
(** Lane-wise subtraction (borrows cut at lane boundaries). *)

val reconstruct_prefix : bits:int -> width:int -> taken:int -> int -> int
(** [reconstruct_prefix ~bits ~width ~taken v] keeps the [taken] most
    significant subwords of [v] and zeroes the rest: the approximate
    value available after processing [taken] subword stages. *)
