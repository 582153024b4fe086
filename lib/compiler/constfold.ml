open Wn_lang
open Ast

let u32 v = v land 0xFFFF_FFFF

(* The signed value of a 32-bit pattern, for arithmetic right shift. *)
let s32 v =
  let v = u32 v in
  if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

let fold_binop op a b =
  match op with
  | Add -> Some (u32 (a + b))
  | Sub -> Some (u32 (a - b))
  | Mul -> Some (u32 (a * b))
  | And -> Some (u32 (a land b))
  | Or -> Some (u32 (a lor b))
  | Xor -> Some (u32 (a lxor b))
  | Shl -> if b >= 0 && b < 32 then Some (u32 (a lsl b)) else None
  | Shr -> if b >= 0 && b < 32 then Some (u32 (s32 a asr b)) else None
  | Eq | Ne | Lt | Le | Gt | Ge -> None

(* One rewriting step, applied bottom-up by [map_expr]; operands are
   already folded when it runs. *)
let step e =
  match e with
  | Binop (op, Int a, Int b) -> (
      match fold_binop op a b with Some v -> Int v | None -> e)
  | Binop (Add, e', Int 0) | Binop (Add, Int 0, e') -> e'
  | Binop (Sub, e', Int 0) -> e'
  | Binop (Mul, e', Int 1) | Binop (Mul, Int 1, e') -> e'
  | Binop ((Shl | Shr), e', Int 0) -> e'
  | Binop ((Or | Xor), e', Int 0) | Binop ((Or | Xor), Int 0, e') -> e'
  | Neg (Int a) -> Int (u32 (-a))
  | Bnot (Int a) -> Int (u32 (lnot a))
  | e -> e

let expr e = map_expr step e

let run stmts = List.map (map_exprs_stmt step) stmts
