(** Induction-variable strength reduction over the WNC IR.

    Array indices that are affine in a loop variable —
    [idx = c*v + rest + k] with [c] a constant, [rest] a pure
    loop-invariant expression and [k] a constant — are rewritten to use
    a running {e byte-offset} induction variable:

    {v
      int32 __sr_iv0 = (rest + c*lo) * elem_bytes;
      for (v = lo; v < hi; v += step) {
        ... a[@__sr_iv0] ...          // Raw_off: no scale, no base add
        __sr_iv0 += c * step * elem_bytes;
      }
    v}

    which deletes the per-iteration index add, scale shift and base
    materialisation the code generator would otherwise emit.  Accesses
    sharing [(c, rest, elem_bytes)] share one induction variable; a
    per-access constant [k] survives as a [Raw_off (iv + k*eb)] offset
    the code generator folds into the materialised base address.

    Three refinements keep the win from costing registers it does not
    have:

    - {e loop-variable elimination}: when the loop variable is
      otherwise dead and the bounds are small constants, the primary
      induction variable {e becomes} the loop variable (bounds and step
      rescaled by [c*step*eb]), saving its register and increment;
    - {e single-use declaration inlining}: a pure declaration read only
      by induction-variable initialisers is substituted into them and
      deleted, freeing its register;
    - {e register budget}: the rewrite is attempted, the code
      generator's local-pool pressure is re-simulated exactly
      (including its name-reuse and block-scoping rules), and loops are
      dropped from the candidate set shallowest-first until the kernel
      fits the 7-register local pool again
      ({!Wn_analysis.Ircheck.fit_pool}).  A kernel that already exceeds
      the pool is returned unchanged.

    All index arithmetic is 32-bit wrapping, so the incremental byte
    offset equals [idx * elem_bytes (mod 2^32)] exactly — bit-identical
    addresses to the unreduced code. *)

val iv_prefix : string
(** Name prefix of synthesised induction variables (["__sr_iv"]). *)

val run :
  globals:Wn_lang.Ast.global list ->
  Wn_lang.Ast.stmt list ->
  Wn_lang.Ast.stmt list
(** [run ~globals body] strength-reduces every loop of [body].
    [globals] must be the {e storage-level} globals (after the anytime
    sub-passes), whose element widths scale the byte offsets. *)
