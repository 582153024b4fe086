(** General-purpose registers of the WN-32 core.

    Like the Cortex M0+ the paper targets, the core has sixteen 32-bit
    registers: [r0]–[r12] general purpose, [sp] (r13), [lr] (r14) and
    [pc] (r15).  The program counter is not directly addressable by ALU
    instructions in this ISA; it appears here for checkpointing. *)

type t = private int

val r : int -> t
(** [r n] for [0 <= n <= 15].  Raises [Invalid_argument] otherwise. *)

val index : t -> int

val sp : t
val lr : t
val pc : t

val count : int
(** Number of architectural registers (16). *)

val allocatable : t list
(** Registers the code generator may allocate: [r0]–[r12]. *)

val equal : t -> t -> bool
val to_string : t -> string
