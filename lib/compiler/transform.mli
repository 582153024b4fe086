(** The What's Next compiler transformation (Algorithm 1 of the paper),
    as three sub-passes.  Each claims the top-level
    [anytime { body } commit { ... }] regions of its kind, in program
    order, and leaves the others to the sub-passes after it; each region
    is replicated into stages through one skeleton: the [commit] block
    re-runs after every stage, so the best-so-far output is materialised
    in memory, and a skim point ([Skim_here] → [SKM]) separates
    consecutive stages.

    {b [anytime-swp]} (asp pragmas, Section III-A) claims regions that
    load an asp-annotated array.  The region's top-level loop is
    fissioned into one replica per subword, most significant first.  In
    replica [p], multiplications by an annotated array element become
    [Mul_asp] stages over that element's subword [p].  Statements that
    do not feed the pipelined multiplication (e.g. an exact running sum
    sharing the loop) run only in the first replica.

    {b [anytime-sqrt]} (the paper's footnote 3) claims regions that take
    a square root when an asp output is declared: the loop is replicated
    with [Sqrt_asp] stages of growing result width, each overwriting the
    last, and the final stage is the exact root.

    {b [anytime-swv]} (asv pragmas, Section III-B) claims the regions
    left.  Those that load an asv-annotated array are re-laid-out in
    subword-major order (Figure 7) and rewritten to sweep one subword
    {e plane} at a time, most significant first, processing [32 / lane]
    elements per [ADD_ASV]/[SUB_ASV] (or plain logical op, which is
    lane-safe).  Three shapes are recognised:
    - {e element-wise}: [X[i] = A[i] op B[i]] (or a copy) — MatAdd's
      shape; provisioned operands get double-width lanes so carry-outs
      are kept and the precise result is reached (Figure 14);
    - {e windowed reduction}: one sum per fixed-size window — Home's and
      NetMotion's shape; each stage banks one plane's partial sum per
      window into a synthesised [__wn_zplanes_] array, and the window's
      result stores re-derive its sum from the banked planes;
    - {e reduction}: [s += A[i]] accumulators over the whole array;
      each stage sums its plane in a register and stores the total once
      to a synthesised [__wn_planes_] array, and the [commit] block's
      uses of [s] are replaced by the exact reconstruction
      [Σ plane_p << (p·bits)].  Reductions require [provisioned] and
      use at least 16-bit lanes so banked partial sums cannot overflow
      for the supported element counts.

    A region that loads no annotated array is left as the precise build
    runs it: its body, then its commit.  Precise builds run none of these
    sub-passes; the code generator inlines their regions as plain code. *)

exception Error of string
(** A region the sub-pass cannot lower; the driver prefixes the name of
    the sub-pass that raised it. *)

type ir = {
  body : Wn_lang.Ast.stmt list;  (** the kernel body *)
  storage_globals : Wn_lang.Ast.global list;
      (** storage-level globals: originals, asv arrays retyped to their
          plane words, plus synthesised bank arrays *)
  layouts : (string * Layout.t) list;
      (** the subword-major layout of every retyped asv array; every
          other global is row-major *)
}
(** What each sub-pass maps to the next. *)

val swp : vector_loads:bool -> Wn_lang.Sema.info -> ir -> ir
(** [anytime-swp].  [vector_loads] additionally vectorizes the subword
    loads feeding SWP when the pipelined array is also stored
    subword-major (the Figure 12 study): the innermost loop is unrolled
    by one plane word and each MUL_ASP stage extracts its lane with a
    single shift. *)

val sqrt : Wn_lang.Sema.info -> ir -> ir
(** [anytime-sqrt]. *)

val swv : Wn_lang.Sema.info -> ir -> ir
(** [anytime-swv]; also lowers the regions no sub-pass claims. *)
