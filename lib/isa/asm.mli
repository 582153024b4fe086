(** Two-pass assembler: symbolic labels to absolute instruction
    addresses. *)

type item =
  | Label of string
  | I of string Instr.t
  | Comment of string  (** ignored by assembly, kept for listings *)

type program = item list

val assemble : program -> (int Instr.t array, string) result
(** Resolves every symbolic target to the instruction index following
    its label.  Errors on duplicate or undefined labels, or if a label
    dangles past the end of the program. *)

val assemble_exn : program -> int Instr.t array

val label_map : program -> (string * int) list
(** The label table the first pass builds (for listings and tests). *)

val pp_listing : Format.formatter -> program -> unit
(** Source-level listing with labels and comments. *)
