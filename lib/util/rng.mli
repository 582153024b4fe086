(** Deterministic SplitMix64 pseudo-random number generator.

    Every stochastic component of the reproduction (voltage traces,
    sensor inputs, property tests' fixtures) draws from this generator so
    that experiments are reproducible from a seed alone. *)

type t

val create : int -> t
(** [create seed] makes an independent generator. *)

val next_int64 : t -> int64
(** Uniform over all 2^64 patterns. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)] — exactly uniform, by
    rejection sampling over the underlying 62-bit draw rather than a
    (modulo-biased) reduction.  [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val gaussian : t -> mu:float -> sigma:float -> float
(** Box–Muller normal deviate. *)

val split : t -> t
(** A statistically independent generator derived from [t]'s stream. *)
