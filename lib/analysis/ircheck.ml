open Wn_lang
open Ast

(* Size of the code generator's local pool (r5-r11). *)
let local_pool_size = 7

(* Exact mirror of the code generator's local-register accounting:
   blocks free their declarations on exit, a [Decl] whose name is bound
   anywhere in the environment reuses that binding, [for] allocates its
   variable in a scope of its own, and top-level declarations live to
   the end of the kernel.  Keeping this in lock-step with
   [Codegen.alloc_local] is what lets [fit_pool] promise that a
   rewritten kernel still code-generates. *)
let max_locals stmts =
  let worst = ref 0 in
  let push env n =
    let env = n :: env in
    if List.length env > !worst then worst := List.length env;
    env
  in
  let declare env n = if List.mem n env then env else push env n in
  let rec block env stmts = ignore (List.fold_left stmt env stmts)
  and stmt env s =
    match s with
    | Decl (n, _) -> declare env n
    | Assign _ | Aug_assign _ | Skim_here -> env
    | For l ->
        (* gen_for allocates its variable unconditionally (no reuse) *)
        block (push env l.var) l.body;
        env
    | If (_, a, b) ->
        block env a;
        block env b;
        env
    | Anytime { body; commit } ->
        (* precise lowering shares one scope across body and commit *)
        ignore (List.fold_left stmt (List.fold_left stmt env body) commit);
        env
  in
  block [] stmts;
  !worst

(* Pre-order (id, depth) of every loop, shallowest first: the order in
   which [fit_pool] gives loops up. *)
let loop_depths stmts =
  let acc = ref [] in
  let id = ref 0 in
  let rec go depth = function
    | For l ->
        acc := (!id, depth) :: !acc;
        incr id;
        List.iter (go (depth + 1)) l.body
    | If (_, a, b) ->
        List.iter (go depth) a;
        List.iter (go depth) b
    | Anytime { body; commit } ->
        List.iter (go depth) body;
        List.iter (go depth) commit
    | _ -> ()
  in
  List.iter (go 0) stmts;
  List.stable_sort (fun (_, a) (_, b) -> compare a b) (List.rev !acc)

let fit_pool ~attempt stmts =
  if max_locals stmts > local_pool_size then stmts
  else
    let rec try_with skip drops =
      let out = attempt skip in
      if max_locals out <= local_pool_size then out
      else
        match drops with
        | [] -> stmts
        | id :: drops -> try_with (id :: skip) drops
    in
    try_with [] (List.map fst (loop_depths stmts))

let stmts ~globals body =
  let diags = ref [] in
  let report d = diags := d :: !diags in
  let err rule fmt =
    Printf.ksprintf (fun m -> report (Diag.error ~rule m)) fmt
  in
  let global name = List.find_opt (fun g -> g.g_name = name) globals in
  (* --- expressions ---------------------------------------------- *)
  let check_array_ref arr =
    match global arr with
    | Some g -> Some g
    | None ->
        err "ir-bounds" "reference to unknown array %S" arr;
        None
  in
  let check_index arr idx =
    match (check_array_ref arr, idx) with
    | Some g, Int n when n < 0 || n >= g.g_count ->
        err "ir-bounds" "%s[%d] out of bounds (count %d)" arr n g.g_count
    | Some g, Raw_off (Int k)
      when k < 0 || k > (g.g_count * ty_bytes g.g_ty) - ty_bytes g.g_ty ->
        err "ir-bounds" "%s[@%d] byte offset out of bounds (%d bytes)" arr k
          (g.g_count * ty_bytes g.g_ty)
    | _ -> ()
  in
  (* [env] is the list of variables in scope.  [if_cond] permits one
     top-level comparison; [raw_ok] permits a top-level [Raw_off]
     (index positions only). *)
  let rec expr env ?(if_cond = false) ?(raw_ok = false) e =
    match e with
    | Int _ -> ()
    | Var v ->
        if not (List.mem v env) then
          err "ir-scope" "read of undeclared variable %S" v
    | Load (arr, idx) ->
        check_index arr idx;
        expr env ~raw_ok:true idx
    | Raw_off inner ->
        if not raw_ok then
          err "ir-form" "raw byte offset outside an array index"
        else expr env inner
    | Sub_load _ ->
        (* only legal as a [Mul_asp] operand, matched below *)
        err "ir-form" "subword load outside MUL_ASP"
    | Mul_asp (m, Sub_load { sl_arr; sl_index; sl_shift }, _) ->
        expr env m;
        check_index sl_arr sl_index;
        expr env ~raw_ok:true sl_index;
        if sl_shift < 0 || sl_shift > 31 then
          err "ir-form" "subword shift %d out of range" sl_shift
    | Mul_asp (m, sub, _) ->
        expr env m;
        expr env sub
    | Binop (op, a, b) when is_comparison op ->
        if not if_cond then
          err "ir-form" "comparison outside a condition";
        expr env a;
        expr env b
    | Binop ((Shl | Shr), a, b) ->
        expr env a;
        (match b with
        | Int n when n >= 0 && n < 32 -> ()
        | Int n -> err "ir-form" "shift amount %d out of range" n
        | _ -> err "ir-form" "shift amount must be constant");
        (match b with Int _ -> () | b -> expr env b)
    | Binop (_, a, b) ->
        expr env a;
        expr env b
    | Asv_op (op, _, a, b) ->
        (match op with
        | Add | Sub | And | Or | Xor -> ()
        | Mul | Shl | Shr | Eq | Ne | Lt | Le | Gt | Ge ->
            err "ir-form" "unsupported vector operator %s" (binop_name op));
        expr env a;
        expr env b
    | Neg a | Bnot a | Sqrt a | Sqrt_asp (a, _) -> expr env a
  in
  (* --- statements: the code generator's exact scoping ------------ *)
  let rec block env stmts = ignore (List.fold_left stmt env stmts)
  and stmt env s =
    match s with
    | Decl (n, e) ->
        expr env e;
        if List.mem n env then env else n :: env
    | Assign (Lvar v, e) ->
        if not (List.mem v env) then
          err "ir-scope" "assignment to undeclared variable %S" v;
        expr env e;
        env
    | Assign (Larr (arr, idx), e) ->
        check_index arr idx;
        expr env ~raw_ok:true idx;
        expr env e;
        env
    | Aug_assign (lhs, op, e) ->
        if is_comparison op then
          err "ir-form" "comparison in augmented assignment";
        (match lhs with
        | Lvar v ->
            if not (List.mem v env) then
              err "ir-scope" "assignment to undeclared variable %S" v
        | Larr (arr, idx) ->
            check_index arr idx;
            expr env ~raw_ok:true idx);
        expr env e;
        env
    | For l ->
        if l.step < 1 || l.step > 0xFFF then
          err "ir-loop" "loop step %d not encodable" l.step;
        expr env l.lo;
        expr env l.hi;
        (* the loop variable shadows: gen_for allocates unconditionally *)
        block (l.var :: env) l.body;
        env
    | If (c, a, b) ->
        (match c with
        | Binop (op, _, _) when is_comparison op -> expr env ~if_cond:true c
        | _ ->
            err "ir-form" "condition must be a comparison";
            expr env c);
        block env a;
        block env b;
        env
    | Anytime { body; commit } ->
        (* precise lowering shares one scope across body and commit *)
        ignore (List.fold_left stmt (List.fold_left stmt env body) commit);
        env
    | Skim_here -> env
  in
  block [] body;
  let pressure = max_locals body in
  if pressure > local_pool_size then
    err "ir-pressure" "local-register pressure %d exceeds the %d-register pool"
      pressure local_pool_size;
  List.rev !diags
