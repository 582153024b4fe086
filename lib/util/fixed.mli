(** Q-format fixed-point arithmetic.

    The paper's benchmarks were converted from floating point to fixed
    point "keeping the error between the two under 1%".  A format
    [make ~width ~frac] stores signed values in [width] bits with [frac]
    fractional bits (Q[(width - frac - 1)].[frac]). *)

type format = private { width : int; frac : int }

val make : width:int -> frac:int -> format
(** Raises [Invalid_argument] unless [0 <= frac < width <= 32]. *)

val q8_8 : format
(** 16-bit values with 8 fractional bits — the format of the 16-bit
    benchmarks (Conv2d, MatMul, Var). *)

val of_float : format -> float -> int
(** Round-to-nearest conversion, saturating at the format's range. The
    result is the raw two's-complement bit pattern (unsigned int). *)

val to_float : format -> int -> float
(** Interpret a raw bit pattern in the given format. *)

val mul : format -> int -> int -> int
(** Full-precision fixed-point multiply of two patterns: the product is
    rescaled by [frac] bits and truncated to the format width. *)

val add : format -> int -> int -> int
(** Wrapping fixed-point addition within the format width. *)

val sub : format -> int -> int -> int

val min_value : format -> float
val max_value : format -> float
val resolution : format -> float
(** Value of one least-significant bit. *)
