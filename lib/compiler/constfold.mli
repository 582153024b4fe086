(** Constant folding over the WNC IR (32-bit wrapping semantics).

    Folds integer arithmetic, logical and shift operators over literal
    operands, and applies the usual algebraic identities ([e + 0],
    [e * 1], [e << 0], ...).  The fold mirrors the machine exactly:
    results are masked to 32 bits and [>>] is an arithmetic shift on
    the 32-bit pattern, matching the [Asr] the code generator emits.

    Comparisons are never folded — the code generator only accepts
    comparison operators inside [if] conditions, so collapsing one to a
    literal would produce an uncompilable tree.  The internal forms
    ([Mul_asp], [Sub_load], [Asv_op], ...) keep their structure; only
    their operand expressions are folded. *)

val expr : Wn_lang.Ast.expr -> Wn_lang.Ast.expr
(** Fold a single expression bottom-up. *)

val run : Wn_lang.Ast.stmt list -> Wn_lang.Ast.stmt list
(** Fold every expression of a kernel body, including loop bounds. *)
