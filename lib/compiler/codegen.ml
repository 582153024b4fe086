open Wn_isa
open Wn_lang
open Ast

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type input = {
  cg_body : stmt list;
  cg_globals : (string * global) list;
  cg_addresses : (string * int) list;
}

let end_label = "__wn_end"

let scratch = List.map Reg.r [ 0; 1; 2; 3; 4 ]
let local_pool = List.map Reg.r [ 5; 6; 7; 8; 9; 10; 11 ]
let addr_tmp = Reg.r 12

let u32 v = v land 0xFFFF_FFFF

let log2_exact n =
  let rec go acc v =
    if v = 1 then Some acc else if v land 1 = 1 then None else go (acc + 1) (v / 2)
  in
  if n <= 0 then None else go 0 n

type state = {
  input : input;
  mutable out : Asm.item list;  (** reversed *)
  mutable env : (string * Reg.t) list;
  mutable pool : Reg.t list;
  mutable next_label : int;
}

let emit st i = st.out <- Asm.I i :: st.out
let emit_label st l = st.out <- Asm.Label l :: st.out

let fresh_label st base =
  st.next_label <- st.next_label + 1;
  Printf.sprintf "L%d_%s" st.next_label base

let global_of st name =
  match List.assoc_opt name st.input.cg_globals with
  | Some g -> g
  | None -> err "codegen: unknown array %S" name

let address_of st name =
  match List.assoc_opt name st.input.cg_addresses with
  | Some a -> a
  | None -> err "codegen: no address for %S" name

let lookup_local st name = List.assoc_opt name st.env

let local_reg st name =
  match lookup_local st name with
  | Some r -> r
  | None -> err "codegen: undefined variable %S" name

let alloc_local st name =
  match st.pool with
  | [] -> err "out of registers for local %S" name
  | r :: rest ->
      st.pool <- rest;
      st.env <- (name, r) :: st.env;
      r

(* Scopes: remember the environment depth, restore it (returning the
   registers of everything declared since) when the block closes. *)
let enter_scope st = List.length st.env

let leave_scope st mark =
  let rec drop env =
    if List.length env = mark then env
    else
      match env with
      | (_, r) :: rest ->
          st.pool <- r :: st.pool;
          drop rest
      | [] -> assert false
  in
  st.env <- drop st.env

let emit_const st dest n =
  let pattern = u32 n in
  let lo = pattern land 0xFFFF and hi = pattern lsr 16 in
  emit st (Instr.Mov_imm (dest, lo));
  if hi <> 0 then emit st (Instr.Movt (dest, hi))

let elem_width ty : Instr.width =
  match ty_bytes ty with 1 -> Instr.Byte | 2 -> Instr.Half | _ -> Instr.Word

let scale_shift ty = match ty_bytes ty with 1 -> 0 | 2 -> 1 | _ -> 2

(* Split a [Raw_off] payload into its static byte offset and dynamic
   part.  The static part folds into the materialised base address, so
   [a[@(iv + 8)]] costs exactly what [a[@iv]] costs. *)
let raw_parts = function
  | Int k -> (k, None)
  | Var _ as v -> (0, Some v)
  | Binop (Add, (Var _ as v), Int k) | Binop (Add, Int k, (Var _ as v)) ->
      (k, Some v)
  | e -> (0, Some e)

(* Load arr[idx-already-in-reg] into [reg]: scale the index, point
   [addr_tmp] at the base, and use register-offset addressing.
   [addr_tmp]'s liveness never spans an [eval], so nesting is safe. *)
let emit_indexed_load st ~signed_override g base_addr reg =
  let signed = match signed_override with Some s -> s | None -> ty_signed g.g_ty in
  let sh = scale_shift g.g_ty in
  if sh > 0 then emit st (Instr.Shift (Instr.Lsl, reg, reg, sh));
  emit_const st addr_tmp base_addr;
  emit st
    (Instr.Ldr_reg { width = elem_width g.g_ty; signed; rd = reg; base = addr_tmp; idx = reg })

let rec eval st e dest rest =
  match e with
  | Int n -> emit_const st dest n
  | Var v -> emit st (Instr.Mov (dest, local_reg st v))
  | Load (arr, Int n) ->
      let g = global_of st arr in
      let addr = address_of st arr + (n * ty_bytes g.g_ty) in
      emit_const st dest addr;
      emit st
        (Instr.Ldr
           { width = elem_width g.g_ty; signed = ty_signed g.g_ty; rd = dest;
             base = dest; off = 0 })
  | Load (arr, Raw_off off) -> (
      (* the index is already a byte offset: no scale shift, and any
         static part rides along in the materialised base address *)
      let g = global_of st arr in
      let width = elem_width g.g_ty and signed = ty_signed g.g_ty in
      match raw_parts off with
      | k, None ->
          emit_const st dest (u32 (address_of st arr + k));
          emit st (Instr.Ldr { width; signed; rd = dest; base = dest; off = 0 })
      | k, Some (Var v) ->
          emit_const st addr_tmp (u32 (address_of st arr + k));
          emit st
            (Instr.Ldr_reg
               { width; signed; rd = dest; base = addr_tmp; idx = local_reg st v })
      | k, Some off ->
          eval st off dest rest;
          emit_const st addr_tmp (u32 (address_of st arr + k));
          emit st
            (Instr.Ldr_reg { width; signed; rd = dest; base = addr_tmp; idx = dest }))
  | Load (arr, idx) ->
      let g = global_of st arr in
      eval st idx dest rest;
      emit_indexed_load st ~signed_override:None g (address_of st arr) dest
  | Neg a -> eval st (Binop (Sub, Int 0, a)) dest rest
  | Bnot a -> eval st (Binop (Xor, a, Int 0xFFFF_FFFF)) dest rest
  | Binop (op, a, b) -> eval_binop st op a b dest rest
  | Sub_load _ -> err "codegen: subword load outside MUL_ASP"
  | Raw_off _ -> err "codegen: raw byte offset outside an array index"
  | Mul_asp
      (Load (a1, i1), Sub_load { sl_arr; sl_index; sl_shift }, spec)
    when a1 = sl_arr && i1 = sl_index ->
      (* x·x: the multiplicand and the subword source are the same
         element — load once and expose the subword with one shift. *)
      eval st (Load (a1, i1)) dest rest;
      let t, rest' = take_temp rest in
      ignore rest';
      if sl_shift > 0 then emit st (Instr.Shift (Instr.Lsr, t, dest, sl_shift))
      else emit st (Instr.Mov (t, dest));
      emit st
        (Instr.Mul_asp
           { bits = spec.asp_bits; signed = spec.asp_signed; rd = dest;
             rn = t; shift = spec.asp_shift })
  | Mul_asp (m, sub, spec) ->
      eval st m dest rest;
      let t, rest' = take_temp rest in
      eval_subword st sub spec t rest';
      emit st
        (Instr.Mul_asp
           { bits = spec.asp_bits; signed = spec.asp_signed; rd = dest;
             rn = t; shift = spec.asp_shift })
  | Sqrt a ->
      eval st a dest rest;
      emit st (Instr.Sqrt (dest, dest))
  | Sqrt_asp (a, bits) ->
      eval st a dest rest;
      emit st (Instr.Sqrt_asp { bits; rd = dest; rn = dest })
  | Asv_op (op, lane, a, b) ->
      eval st a dest rest;
      let t, rest' = take_temp rest in
      eval st b t rest';
      (match (op, lane) with
      | Add, 32 -> emit st (Instr.Alu (Instr.Add, dest, dest, t))
      | Sub, 32 -> emit st (Instr.Alu (Instr.Sub, dest, dest, t))
      | Add, w -> emit st (Instr.Add_asv (w, dest, dest, t))
      | Sub, w -> emit st (Instr.Sub_asv (w, dest, dest, t))
      | And, _ -> emit st (Instr.Alu (Instr.And, dest, dest, t))
      | Or, _ -> emit st (Instr.Alu (Instr.Orr, dest, dest, t))
      | Xor, _ -> emit st (Instr.Alu (Instr.Eor, dest, dest, t))
      | (Mul | Shl | Shr | Eq | Ne | Lt | Le | Gt | Ge), _ ->
          err "codegen: unsupported vector operator")

and take_temp = function
  | t :: rest -> (t, rest)
  | [] -> err "codegen: expression too deep"

and eval_binop st op a b dest rest =
  let alu_op : Instr.alu_op option =
    match op with
    | Add -> Some Instr.Add
    | Sub -> Some Instr.Sub
    | And -> Some Instr.And
    | Or -> Some Instr.Orr
    | Xor -> Some Instr.Eor
    | Mul | Shl | Shr | Eq | Ne | Lt | Le | Gt | Ge -> None
  in
  match (op, a, b) with
  | _, _, _ when is_comparison op -> err "codegen: comparison outside condition"
  | (Shl | Shr), Var v, Int n when n >= 0 && n < 32 ->
      let sop = if op = Shl then Instr.Lsl else Instr.Asr in
      if n > 0 then emit st (Instr.Shift (sop, dest, local_reg st v, n))
      else emit st (Instr.Mov (dest, local_reg st v))
  | (Shl | Shr), a, Int n when n >= 0 && n < 32 ->
      eval st a dest rest;
      let sop = if op = Shl then Instr.Lsl else Instr.Asr in
      if n > 0 then emit st (Instr.Shift (sop, dest, dest, n))
  | (Shl | Shr), _, _ -> err "codegen: shift amount must be constant"
  (* Register-direct operand forms — what any -O2 back end emits.
     Without them, index arithmetic would swamp the data multiplies WN
     accelerates. *)
  | Mul, Var va, Var vb ->
      emit st (Instr.Mul (dest, local_reg st va, local_reg st vb))
  | _, Var va, Var vb when alu_op <> None ->
      emit st
        (Instr.Alu (Option.get alu_op, dest, local_reg st va, local_reg st vb))
  | _, Var va, Int n when alu_op <> None && n >= 0 && n <= 0xFFF ->
      emit st (Instr.Alu_imm (Option.get alu_op, dest, local_reg st va, n))
  | Add, Int n, Var vb when n >= 0 && n <= 0xFFF ->
      emit st (Instr.Alu_imm (Instr.Add, dest, local_reg st vb, n))
  | _, Var va, b when alu_op <> None ->
      eval st b dest rest;
      emit st (Instr.Alu (Option.get alu_op, dest, local_reg st va, dest))
  | _, a, Var vb when alu_op <> None ->
      eval st a dest rest;
      emit st (Instr.Alu (Option.get alu_op, dest, dest, local_reg st vb))
  | Mul, Load (a1, i1), Load (a2, i2) when a1 = a2 && i1 = i2 ->
      (* x·x: load once, square. *)
      eval st (Load (a1, i1)) dest rest;
      emit st (Instr.Mul (dest, dest, dest))
  | Mul, a, Int n when log2_exact n <> None -> (
      eval st a dest rest;
      match log2_exact n with
      | Some 0 -> ()
      | Some sh -> emit st (Instr.Shift (Instr.Lsl, dest, dest, sh))
      | None -> assert false)
  | Mul, Int n, a when log2_exact n <> None -> (
      eval st a dest rest;
      match log2_exact n with
      | Some 0 -> ()
      | Some sh -> emit st (Instr.Shift (Instr.Lsl, dest, dest, sh))
      | None -> assert false)
  | Mul, a, b ->
      eval st a dest rest;
      let t, rest' = take_temp rest in
      eval st b t rest';
      emit st (Instr.Mul (dest, dest, t))
  | _, a, Int n when alu_op <> None && n >= 0 && n <= 0xFFF ->
      eval st a dest rest;
      emit st (Instr.Alu_imm (Option.get alu_op, dest, dest, n))
  | Add, Int n, b when n >= 0 && n <= 0xFFF ->
      eval st b dest rest;
      emit st (Instr.Alu_imm (Instr.Add, dest, dest, n))
  | _, a, b ->
      eval st a dest rest;
      let t, rest' = take_temp rest in
      eval st b t rest';
      emit st (Instr.Alu (Option.get alu_op, dest, dest, t))

(* Load the subword operand of a MUL_ASP into [t].  A Sub_load becomes
   a single byte load when the subword sits within one byte of its
   element (as in the paper's Listing 2, where LDRB replaces LDR), and
   an element load plus one shift otherwise; the residual high bits are
   truncated by MUL_ASP itself, so no masking is emitted. *)
and eval_subword st sub spec t rest =
  match sub with
  | Sub_load { sl_arr; sl_index; sl_shift } ->
      let g = global_of st sl_arr in
      let base = address_of st sl_arr in
      let byte_off = sl_shift / 8 and residual = sl_shift mod 8 in
      if residual + spec.asp_bits <= 8 then begin
        let load_at_t () =
          emit st
            (Instr.Ldr
               { width = Instr.Byte; signed = false; rd = t; base = t; off = 0 })
        in
        let load_indexed idx_reg k =
          emit_const st addr_tmp (u32 (base + byte_off + k));
          emit st
            (Instr.Ldr_reg
               { width = Instr.Byte; signed = false; rd = t; base = addr_tmp;
                 idx = idx_reg })
        in
        (match sl_index with
        | Int n ->
            emit_const st t (base + (n * ty_bytes g.g_ty) + byte_off);
            load_at_t ()
        | Raw_off off -> (
            (* byte offset already scaled: the subword's byte rides on
               the same register the element accesses index with *)
            match raw_parts off with
            | k, None ->
                emit_const st t (u32 (base + byte_off + k));
                load_at_t ()
            | k, Some (Var v) -> load_indexed (local_reg st v) k
            | k, Some off ->
                eval st off t rest;
                load_indexed t k)
        | idx ->
            eval st idx t rest;
            let sh = scale_shift g.g_ty in
            if sh > 0 then emit st (Instr.Shift (Instr.Lsl, t, t, sh));
            if byte_off > 0 then
              emit st (Instr.Alu_imm (Instr.Add, t, t, byte_off));
            emit_const st addr_tmp base;
            emit st (Instr.Alu (Instr.Add, t, addr_tmp, t));
            load_at_t ());
        if residual > 0 then emit st (Instr.Shift (Instr.Lsr, t, t, residual))
      end
      else begin
        eval st (Load (sl_arr, sl_index)) t rest;
        if sl_shift > 0 then emit st (Instr.Shift (Instr.Lsr, t, t, sl_shift))
      end
  | e -> eval st e t rest

let negate_cond : binop -> Cond.t = function
  | Eq -> Cond.Ne
  | Ne -> Cond.Eq
  | Lt -> Cond.Ge
  | Ge -> Cond.Lt
  | Gt -> Cond.Le
  | Le -> Cond.Gt
  | _ -> err "codegen: condition must be a comparison"

let r0 = Reg.r 0
let r1 = Reg.r 1
let r2 = Reg.r 2

let rest_after rs = List.filter (fun r -> not (List.memq r rs)) scratch

(* Emit flag-setting code for a comparison, then branch on its negation
   to [target]. *)
let emit_cond_branch st cond ~negated_to:target =
  match cond with
  | Binop (op, a, b) when is_comparison op ->
      eval st a r0 (rest_after [ r0 ]);
      (match b with
      | Int n when n >= 0 && n <= 0xFFFF -> emit st (Instr.Cmp_imm (r0, n))
      | Var v -> emit st (Instr.Cmp (r0, local_reg st v))
      | b ->
          eval st b r1 (rest_after [ r0; r1 ]);
          emit st (Instr.Cmp (r0, r1)));
      emit st (Instr.B (negate_cond op, target))
  | _ -> err "codegen: condition must be a comparison"

let rec gen_stmt st stmt =
  match stmt with
  | Decl (name, e) -> (
      let reads_self = ref false in
      iter_expr
        (fun e -> match e with Var x when x = name -> reads_self := true | _ -> ())
        e;
      match lookup_local st name with
      | Some r when not !reads_self ->
          (* Loop fission replicates declarations; re-declaration in the
             same scope reuses the register, and the initialiser can
             evaluate straight into it. *)
          eval st e r (rest_after [])
      | Some r ->
          eval st e r0 (rest_after [ r0 ]);
          emit st (Instr.Mov (r, r0))
      | None ->
          if !reads_self then ignore (local_reg st name);
          let r = alloc_local st name in
          eval st e r (rest_after []))
  | Assign (Lvar v, e) -> (
      let rv = local_reg st v in
      let mentions_v e =
        let found = ref false in
        iter_expr
          (fun e -> match e with Var x when x = v -> found := true | _ -> ())
          e;
        !found
      in
      match e with
      (* v := ASV(v, e2) — lane-parallel accumulate in place. *)
      | Asv_op (op, lane, Var x, e2) when x = v && not (mentions_v e2) ->
          eval st e2 r0 (rest_after [ r0 ]);
          (match (op, lane) with
          | Add, 32 -> emit st (Instr.Alu (Instr.Add, rv, rv, r0))
          | Sub, 32 -> emit st (Instr.Alu (Instr.Sub, rv, rv, r0))
          | Add, w -> emit st (Instr.Add_asv (w, rv, rv, r0))
          | Sub, w -> emit st (Instr.Sub_asv (w, rv, rv, r0))
          | And, _ -> emit st (Instr.Alu (Instr.And, rv, rv, r0))
          | Or, _ -> emit st (Instr.Alu (Instr.Orr, rv, rv, r0))
          | Xor, _ -> emit st (Instr.Alu (Instr.Eor, rv, rv, r0))
          | (Mul | Shl | Shr | Eq | Ne | Lt | Le | Gt | Ge), _ ->
              err "codegen: unsupported vector operator")
      (* v := v op e2 — accumulate in place, no copies. *)
      | Binop (op, Var x, e2)
        when x = v && (not (is_comparison op)) && op <> Mul && op <> Shl
             && op <> Shr && not (mentions_v e2) ->
          let alu : Instr.alu_op =
            match op with
            | Add -> Instr.Add | Sub -> Instr.Sub | And -> Instr.And
            | Or -> Instr.Orr | Xor -> Instr.Eor
            | Mul | Shl | Shr | Eq | Ne | Lt | Le | Gt | Ge -> assert false
          in
          (match e2 with
          | Int n when n >= 0 && n <= 0xFFF ->
              emit st (Instr.Alu_imm (alu, rv, rv, n))
          | Var y -> emit st (Instr.Alu (alu, rv, rv, local_reg st y))
          | e2 ->
              eval st e2 r0 (rest_after [ r0 ]);
              emit st (Instr.Alu (alu, rv, rv, r0)))
      (* e never reads v: evaluate straight into v's register. *)
      | e when not (mentions_v e) -> eval st e rv (rest_after [])
      | e ->
          eval st e r0 (rest_after [ r0 ]);
          emit st (Instr.Mov (rv, r0)))
  | Assign (Larr (arr, idx), e) ->
      let g = global_of st arr in
      let width = elem_width g.g_ty in
      eval st e r0 (rest_after [ r0 ]);
      (match idx with
      | Int n ->
          emit_const st r1 (address_of st arr + (n * ty_bytes g.g_ty));
          emit st (Instr.Str { width; rs = r0; base = r1; off = 0 })
      | Raw_off off -> (
          match raw_parts off with
          | k, None ->
              emit_const st r1 (u32 (address_of st arr + k));
              emit st (Instr.Str { width; rs = r0; base = r1; off = 0 })
          | k, Some (Var v) ->
              emit_const st addr_tmp (u32 (address_of st arr + k));
              emit st
                (Instr.Str_reg
                   { width; rs = r0; base = addr_tmp; idx = local_reg st v })
          | k, Some off ->
              eval st off r1 (rest_after [ r0; r1 ]);
              emit_const st addr_tmp (u32 (address_of st arr + k));
              emit st (Instr.Str_reg { width; rs = r0; base = addr_tmp; idx = r1 }))
      | idx ->
          eval st idx r1 (rest_after [ r0; r1 ]);
          let sh = scale_shift g.g_ty in
          if sh > 0 then emit st (Instr.Shift (Instr.Lsl, r1, r1, sh));
          emit_const st addr_tmp (address_of st arr);
          emit st (Instr.Str_reg { width; rs = r0; base = addr_tmp; idx = r1 }))
  | Aug_assign (Larr (arr, idx), op, e)
    when (match op with Add | Sub | And | Or | Xor -> true | _ -> false) ->
      (* a[i] op= e — one address computation feeding both the load and
         the store.  The desugared form (a[i] = a[i] op e) evaluated the
         index and re-materialised the base address twice per statement;
         keeping the address in place halves the addressing work of
         every accumulation into memory. *)
      let g = global_of st arr in
      let width = elem_width g.g_ty and signed = ty_signed g.g_ty in
      let alu : Instr.alu_op =
        match op with
        | Add -> Instr.Add | Sub -> Instr.Sub | And -> Instr.And
        | Or -> Instr.Orr | Xor -> Instr.Eor
        | Mul | Shl | Shr | Eq | Ne | Lt | Le | Gt | Ge -> assert false
      in
      let rmw_at_reg addr_reg =
        emit st (Instr.Ldr { width; signed; rd = r2; base = addr_reg; off = 0 });
        emit st (Instr.Alu (alu, r2, r2, r0));
        emit st (Instr.Str { width; rs = r2; base = addr_reg; off = 0 })
      in
      let rmw_indexed idx_reg =
        emit st
          (Instr.Ldr_reg { width; signed; rd = r2; base = addr_tmp; idx = idx_reg });
        emit st (Instr.Alu (alu, r2, r2, r0));
        emit st
          (Instr.Str_reg { width; rs = r2; base = addr_tmp; idx = idx_reg })
      in
      eval st e r0 (rest_after [ r0 ]);
      (match idx with
      | Int n ->
          emit_const st r1 (u32 (address_of st arr + (n * ty_bytes g.g_ty)));
          rmw_at_reg r1
      | Raw_off off -> (
          match raw_parts off with
          | k, None ->
              emit_const st r1 (u32 (address_of st arr + k));
              rmw_at_reg r1
          | k, Some (Var v) ->
              emit_const st addr_tmp (u32 (address_of st arr + k));
              rmw_indexed (local_reg st v)
          | k, Some off ->
              eval st off r1 (rest_after [ r0; r1 ]);
              emit_const st addr_tmp (u32 (address_of st arr + k));
              rmw_indexed r1)
      | idx ->
          eval st idx r1 (rest_after [ r0; r1 ]);
          let sh = scale_shift g.g_ty in
          if sh > 0 then emit st (Instr.Shift (Instr.Lsl, r1, r1, sh));
          emit_const st addr_tmp (address_of st arr);
          rmw_indexed r1)
  | Aug_assign (lhs, op, e) ->
      let current =
        match lhs with Lvar v -> Var v | Larr (a, i) -> Load (a, i)
      in
      gen_stmt st (Assign (lhs, Binop (op, current, e)))
  | For l -> gen_for st l
  | If (cond, then_blk, []) ->
      let l_end = fresh_label st "endif" in
      emit_cond_branch st cond ~negated_to:l_end;
      gen_block st then_blk;
      emit_label st l_end
  | If (cond, then_blk, else_blk) ->
      let l_else = fresh_label st "else" in
      let l_end = fresh_label st "endif" in
      emit_cond_branch st cond ~negated_to:l_else;
      gen_block st then_blk;
      emit st (Instr.B (Cond.Al, l_end));
      emit_label st l_else;
      gen_block st else_blk;
      emit_label st l_end
  | Anytime { body; commit } ->
      (* Precise build: the region runs once, straight through; body
         and commit share a scope so prelude locals stay visible. *)
      let mark = enter_scope st in
      List.iter (gen_stmt st) body;
      List.iter (gen_stmt st) commit;
      leave_scope st mark
  | Skim_here -> emit st (Instr.Skm end_label)

and gen_block st stmts =
  let mark = enter_scope st in
  List.iter (gen_stmt st) stmts;
  leave_scope st mark

and gen_for st l =
  (* Rotated loop: the condition is tested at the bottom, so each
     iteration pays one compare and one taken branch. *)
  let mark = enter_scope st in
  let rv = alloc_local st l.var in
  eval st l.lo rv (rest_after []);
  let l_body = fresh_label st ("for_" ^ l.var) in
  let l_check = fresh_label st ("forchk_" ^ l.var) in
  emit st (Instr.B (Cond.Al, l_check));
  emit_label st l_body;
  gen_block st l.body;
  emit st (Instr.Alu_imm (Instr.Add, rv, rv, l.step));
  emit_label st l_check;
  (match l.hi with
  | Int n when n >= 0 && n <= 0xFFFF -> emit st (Instr.Cmp_imm (rv, n))
  | Var v -> emit st (Instr.Cmp (rv, local_reg st v))
  | hi ->
      eval st hi r0 (rest_after [ r0 ]);
      emit st (Instr.Cmp (rv, r0)));
  emit st (Instr.B (Cond.Lt, l_body));
  leave_scope st mark

let generate input =
  let st =
    { input; out = []; env = []; pool = local_pool; next_label = 0 }
  in
  List.iter (gen_stmt st) input.cg_body;
  emit_label st end_label;
  emit st Instr.Halt;
  List.rev st.out
