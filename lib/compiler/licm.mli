(** Loop-invariant code motion over the WNC IR.

    Two motions, both conservative:

    - {e declaration hoisting}: a pure declaration at the top level of
      a loop body whose free variables (and the declared name itself)
      are written nowhere in the body is moved in front of the loop, so
      it evaluates once per loop entry instead of once per iteration;
    - {e bound hoisting}: a loop bound that is neither a literal nor a
      plain variable — which the code generator would otherwise
      re-evaluate on every back-edge — is computed once into a fresh
      variable when it is pure and invariant.  (A bound that reads
      variables the body writes is semantically re-evaluated each
      iteration, per the interpreter, and is left alone.)

    Hoisting extends live ranges, so each motion is kept only if the
    code generator's simulated local-pool pressure stays within budget:
    loops give up their motions shallowest first until the kernel fits
    ({!Wn_analysis.Ircheck.fit_pool}). *)

val run : Wn_lang.Ast.stmt list -> Wn_lang.Ast.stmt list
