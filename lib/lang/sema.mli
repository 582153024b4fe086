(** Semantic analysis for WNC: name/shape checking and pragma
    validation.  Runs before the WN transformation passes, so the
    internal expression forms ([Sub_load], [Mul_asp], [Asv_op]) are
    rejected here. *)

exception Error of string

type asv_spec = { asv_bits : int; asv_provisioned : bool }

type info = {
  asp_inputs : (string * int) list;  (** array name, subword bits *)
  asp_outputs : string list;
  asp_output_bits : int option;
      (** optional stage size attached to an [asp output] pragma — used
          by the anytime square-root schema (footnote 3) *)
  asv_arrays : (string * asv_spec) list;  (** inputs and outputs *)
  globals : (string * Ast.global) list;
}

val analyze : Ast.program -> info
(** Validates the program and returns its annotation summary.
    Raises {!Error} on:
    - duplicate or unknown names, use of an array without an index;
    - an index outside its array that is a constant: any index
      expression without a variable or a load, folded with the
      language's 32-bit semantics ({!Interp.constant});
    - locals that shadow globals, use of undeclared variables;
    - comparison operators outside [if] conditions, non-constant shift
      amounts;
    - pragmas naming unknown arrays, [asp input] without a subword
      size or on an element type other than 16 bits (the paper's
      16×16-multiplier operands), [asv] sizes other than 4, 8 or 16 or
      not dividing the element width;
    - nested [anytime] blocks or internal expression forms in source. *)

val asp_input : info -> string -> int option
val asv_spec : info -> string -> asv_spec option
val global : info -> string -> Ast.global option
