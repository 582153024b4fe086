(** IR-level lint: structural invariants every compiler pass must
    preserve.

    The pass pipeline runs this after {e every} IR-to-IR pass, so a
    pass that breaks an invariant is caught immediately and blamed by
    name, instead of surfacing later as an opaque code-generator error.
    The checks mirror exactly what the code generator will reject (or
    silently miscompile):

    - [ir-scope]: every variable read is declared first, under the
      code generator's scoping rules (blocks free their declarations,
      [for] variables shadow, [Decl] of a live name reuses it);
    - [ir-pressure]: peak local-register pressure fits the 7-register
      local pool;
    - [ir-bounds]: array references name a known global; constant
      indices — element or raw byte offsets — stay inside it;
    - [ir-form]: internal forms sit where the code generator accepts
      them ([Sub_load] as a [Mul_asp] operand, [Raw_off] as an array
      index, comparisons only as [if]/loop conditions, shift amounts
      constant and in range);
    - [ir-loop]: loop steps are at least 1 and encodable.

    All findings are error severity: a dirty IR is a compiler bug, not
    a program property. *)

val stmts :
  globals:Wn_lang.Ast.global list ->
  Wn_lang.Ast.stmt list ->
  Diag.t list
(** [stmts ~globals body] checks a kernel body against the
    storage-level global declarations. *)

(** {2 The register budget}

    One model of the code generator's local-register pool, shared by
    [ir-pressure] and by the IR passes whose rewrites lengthen live
    ranges. *)

val local_pool_size : int
(** Size of the code generator's local register pool (r5-r11): 7. *)

val max_locals : Wn_lang.Ast.stmt list -> int
(** Peak local-register pressure of a kernel body, simulated with the
    code generator's exact scoping and name-reuse rules. *)

val fit_pool :
  attempt:(int list -> Wn_lang.Ast.stmt list) ->
  Wn_lang.Ast.stmt list ->
  Wn_lang.Ast.stmt list
(** [fit_pool ~attempt body] keeps a rewrite only while the kernel fits
    the pool.  [attempt skip] rewrites [body] leaving alone the loops
    whose pre-order ids are in [skip].  Loops are dropped shallowest
    first until the result fits; if none fits, [body] comes back
    unchanged.  A [body] that already exceeds the pool is returned
    unchanged without an attempt. *)
