type ty = U8 | U16 | U32 | I16 | I32

let ty_bytes = function U8 -> 1 | U16 | I16 -> 2 | U32 | I32 -> 4
let ty_bits t = 8 * ty_bytes t
let ty_signed = function I16 | I32 -> true | U8 | U16 | U32 -> false

let ty_name = function
  | U8 -> "uint8" | U16 -> "uint16" | U32 -> "uint32"
  | I16 -> "int16" | I32 -> "int32"

type binop =
  | Add | Sub | Mul
  | And | Or | Xor
  | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | And -> "&" | Or -> "|"
  | Xor -> "^" | Shl -> "<<" | Shr -> ">>" | Eq -> "==" | Ne -> "!="
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let is_comparison = function
  | Eq | Ne | Lt | Le | Gt | Ge -> true
  | Add | Sub | Mul | And | Or | Xor | Shl | Shr -> false

type asp_spec = { asp_bits : int; asp_shift : int; asp_signed : bool }

type expr =
  | Int of int
  | Var of string
  | Load of string * expr
  | Neg of expr
  | Bnot of expr
  | Binop of binop * expr * expr
  | Sub_load of { sl_arr : string; sl_index : expr; sl_shift : int }
  | Mul_asp of expr * expr * asp_spec
  | Asv_op of binop * int * expr * expr
  | Sqrt of expr
  | Sqrt_asp of expr * int
  | Raw_off of expr

type lhs = Lvar of string | Larr of string * expr

type stmt =
  | Decl of string * expr
  | Assign of lhs * expr
  | Aug_assign of lhs * binop * expr
  | For of for_loop
  | If of expr * stmt list * stmt list
  | Anytime of { body : stmt list; commit : stmt list }
  | Skim_here

and for_loop = {
  var : string;
  lo : expr;
  hi : expr;
  step : int;
  body : stmt list;
}

type technique = Asp | Asv

type direction = Input | Output

type pragma = {
  prag_technique : technique;
  prag_direction : direction;
  prag_array : string;
  prag_bits : int option;
  prag_provisioned : bool;
}

type global = { g_name : string; g_ty : ty; g_count : int }

type program = {
  pragmas : pragma list;
  globals : global list;
  kernel_name : string;
  body : stmt list;
}

let rec map_stmts f stmts = List.map (map_stmt f) stmts

and map_stmt f stmt =
  let stmt =
    match stmt with
    | For l -> For { l with body = map_stmts f l.body }
    | If (c, a, b) -> If (c, map_stmts f a, map_stmts f b)
    | Anytime { body; commit } ->
        Anytime { body = map_stmts f body; commit = map_stmts f commit }
    | Decl _ | Assign _ | Aug_assign _ | Skim_here -> stmt
  in
  f stmt

let rec iter_expr f e =
  (match e with
  | Int _ | Var _ -> ()
  | Load (_, i) -> iter_expr f i
  | Neg a | Bnot a | Sqrt a | Sqrt_asp (a, _) | Raw_off a -> iter_expr f a
  | Binop (_, a, b) | Asv_op (_, _, a, b) ->
      iter_expr f a;
      iter_expr f b
  | Sub_load { sl_index; _ } -> iter_expr f sl_index
  | Mul_asp (a, sub, _) ->
      iter_expr f a;
      iter_expr f sub);
  f e

let rec iter_exprs_stmt f stmt =
  match stmt with
  | Decl (_, e) -> iter_expr f e
  | Assign (lhs, e) | Aug_assign (lhs, _, e) ->
      (match lhs with Lvar _ -> () | Larr (_, i) -> iter_expr f i);
      iter_expr f e
  | For l ->
      iter_expr f l.lo;
      iter_expr f l.hi;
      List.iter (iter_exprs_stmt f) l.body
  | If (c, a, b) ->
      iter_expr f c;
      List.iter (iter_exprs_stmt f) a;
      List.iter (iter_exprs_stmt f) b
  | Anytime { body; commit } ->
      List.iter (iter_exprs_stmt f) body;
      List.iter (iter_exprs_stmt f) commit
  | Skim_here -> ()

module Names = Set.Make (String)

let add_name acc = function
  | Var v | Load (v, _) | Sub_load { sl_arr = v; _ } -> acc := Names.add v !acc
  | _ -> ()

let names_of_expr e =
  let acc = ref Names.empty in
  iter_expr (add_name acc) e;
  !acc

let writes_of_stmts stmts =
  let acc = ref Names.empty in
  let add n = acc := Names.add n !acc in
  let rec go = function
    | Decl (n, _) -> add n
    | Assign ((Lvar v | Larr (v, _)), _)
    | Aug_assign ((Lvar v | Larr (v, _)), _, _) ->
        add v
    | Skim_here -> ()
    | For l ->
        add l.var;
        List.iter go l.body
    | If (_, a, b) | Anytime { body = a; commit = b } ->
        List.iter go a;
        List.iter go b
  in
  List.iter go stmts;
  !acc

let reads_of_stmts stmts =
  let acc = ref Names.empty in
  let rec targets = function
    | Aug_assign ((Lvar v | Larr (v, _)), _, _) -> acc := Names.add v !acc
    | Decl _ | Assign _ | Skim_here -> ()
    | For l -> List.iter targets l.body
    | If (_, a, b) | Anytime { body = a; commit = b } ->
        List.iter targets a;
        List.iter targets b
  in
  List.iter
    (fun s ->
      iter_exprs_stmt (add_name acc) s;
      targets s)
    stmts;
  !acc

let rec pure_arith e =
  match e with
  | Int _ | Var _ -> true
  | Neg a | Bnot a -> pure_arith a
  | Binop (op, a, b) -> (not (is_comparison op)) && pure_arith a && pure_arith b
  | Load _ | Sub_load _ | Mul_asp _ | Asv_op _ | Sqrt _ | Sqrt_asp _
  | Raw_off _ ->
      false

let rec map_expr f e =
  let e =
    match e with
    | Int _ | Var _ -> e
    | Load (a, i) -> Load (a, map_expr f i)
    | Neg a -> Neg (map_expr f a)
    | Bnot a -> Bnot (map_expr f a)
    | Binop (op, a, b) -> Binop (op, map_expr f a, map_expr f b)
    | Sub_load sl -> Sub_load { sl with sl_index = map_expr f sl.sl_index }
    | Mul_asp (a, sub, spec) -> Mul_asp (map_expr f a, map_expr f sub, spec)
    | Asv_op (op, w, a, b) -> Asv_op (op, w, map_expr f a, map_expr f b)
    | Sqrt a -> Sqrt (map_expr f a)
    | Sqrt_asp (a, bits) -> Sqrt_asp (map_expr f a, bits)
    | Raw_off a -> Raw_off (map_expr f a)
  in
  f e

let rec map_exprs_stmt f stmt =
  match stmt with
  | Decl (n, e) -> Decl (n, map_expr f e)
  | Assign (lhs, e) -> Assign (map_lhs f lhs, map_expr f e)
  | Aug_assign (lhs, op, e) -> Aug_assign (map_lhs f lhs, op, map_expr f e)
  | For l ->
      For
        {
          l with
          lo = map_expr f l.lo;
          hi = map_expr f l.hi;
          body = List.map (map_exprs_stmt f) l.body;
        }
  | If (c, a, b) ->
      If (map_expr f c, List.map (map_exprs_stmt f) a, List.map (map_exprs_stmt f) b)
  | Anytime { body; commit } ->
      Anytime
        {
          body = List.map (map_exprs_stmt f) body;
          commit = List.map (map_exprs_stmt f) commit;
        }
  | Skim_here -> Skim_here

and map_lhs f = function
  | Lvar v -> Lvar v
  | Larr (a, i) -> Larr (a, map_expr f i)

let rec pp_expr ppf e =
  match e with
  | Int n -> Format.pp_print_int ppf n
  | Var v -> Format.pp_print_string ppf v
  | Load (a, i) -> Format.fprintf ppf "%s[%a]" a pp_expr i
  | Neg a -> Format.fprintf ppf "(-%a)" pp_expr a
  | Bnot a -> Format.fprintf ppf "(~%a)" pp_expr a
  | Binop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_name op) pp_expr b
  | Sub_load { sl_arr; sl_index; sl_shift } ->
      Format.fprintf ppf "subload(%s[%a] >> %d)" sl_arr pp_expr sl_index
        sl_shift
  | Mul_asp (a, sub, spec) ->
      Format.fprintf ppf "mul_asp%d%s(%a, %a, <<%d)" spec.asp_bits
        (if spec.asp_signed then "s" else "")
        pp_expr a pp_expr sub spec.asp_shift
  | Asv_op (op, w, a, b) ->
      Format.fprintf ppf "asv%d(%a %s %a)" w pp_expr a (binop_name op) pp_expr b
  | Sqrt a -> Format.fprintf ppf "sqrt(%a)" pp_expr a
  | Sqrt_asp (a, bits) -> Format.fprintf ppf "sqrt_asp%d(%a)" bits pp_expr a
  | Raw_off a -> Format.fprintf ppf "@%a" pp_expr a

let pp_lhs ppf = function
  | Lvar v -> Format.pp_print_string ppf v
  | Larr (a, i) -> Format.fprintf ppf "%s[%a]" a pp_expr i

let rec pp_stmt ppf stmt =
  match stmt with
  | Decl (n, e) -> Format.fprintf ppf "@[int32 %s = %a;@]" n pp_expr e
  | Assign (l, e) -> Format.fprintf ppf "@[%a = %a;@]" pp_lhs l pp_expr e
  | Aug_assign (l, op, e) ->
      Format.fprintf ppf "@[%a %s= %a;@]" pp_lhs l (binop_name op) pp_expr e
  | For l ->
      Format.fprintf ppf
        "@[<v 2>for (%s = %a; %s < %a; %s += %d) {@,%a@]@,}" l.var pp_expr
        l.lo l.var pp_expr l.hi l.var l.step pp_block l.body
  | If (c, a, []) ->
      Format.fprintf ppf "@[<v 2>if (%a) {@,%a@]@,}" pp_expr c pp_block a
  | If (c, a, b) ->
      Format.fprintf ppf "@[<v 2>if (%a) {@,%a@]@,@[<v 2>} else {@,%a@]@,}"
        pp_expr c pp_block a pp_block b
  | Anytime { body; commit } ->
      Format.fprintf ppf "@[<v 2>anytime {@,%a@]@,@[<v 2>} commit {@,%a@]@,}"
        pp_block body pp_block commit
  | Skim_here -> Format.pp_print_string ppf "skim;"

(* One vertical box per statement list, so each statement starts a line
   at the list's indentation wherever the list is printed. *)
and pp_block ppf stmts =
  Format.fprintf ppf "@[<v 0>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt)
    stmts

let pp_program ppf p =
  List.iter
    (fun g ->
      if g.g_count = 1 then
        Format.fprintf ppf "%s %s;@." (ty_name g.g_ty) g.g_name
      else Format.fprintf ppf "%s %s[%d];@." (ty_name g.g_ty) g.g_name g.g_count)
    p.globals;
  Format.fprintf ppf "@[<v 2>kernel %s() {@,%a@]@,}@." p.kernel_name pp_block
    p.body
