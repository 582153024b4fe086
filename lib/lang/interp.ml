open Ast

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let u32 v = v land 0xFFFF_FFFF
let s32 v = Wn_util.Subword.to_signed ~bits:32 (u32 v)

type cell = { ty : ty; data : int array }

type env = {
  globals : (string, cell) Hashtbl.t;
  mutable locals : (string * int ref) list;
}

let init (p : program) =
  let globals = Hashtbl.create 16 in
  List.iter
    (fun g -> Hashtbl.replace globals g.g_name { ty = g.g_ty; data = Array.make g.g_count 0 })
    p.globals;
  { globals; locals = [] }

let cell env name =
  match Hashtbl.find_opt env.globals name with
  | Some c -> c
  | None -> err "unknown array %S" name

let set_array env name values =
  let c = cell env name in
  if Array.length values <> Array.length c.data then
    err "array %S: expected %d elements, got %d" name (Array.length c.data)
      (Array.length values);
  Array.iteri
    (fun i v -> c.data.(i) <- Wn_util.Subword.truncate ~bits:(ty_bits c.ty) v)
    values

let array env name = Array.copy (cell env name).data

let local env name =
  match List.assoc_opt name env.locals with
  | Some r -> r
  | None -> err "undeclared variable %S" name

let load_elem c i =
  if i < 0 || i >= Array.length c.data then err "index %d out of bounds" i;
  let raw = c.data.(i) in
  if ty_signed c.ty then u32 (Wn_util.Subword.to_signed ~bits:(ty_bits c.ty) raw)
  else raw

let store_elem c i v =
  if i < 0 || i >= Array.length c.data then err "index %d out of bounds" i;
  c.data.(i) <- Wn_util.Subword.truncate ~bits:(ty_bits c.ty) v

let rec eval env e =
  match e with
  | Int n -> u32 n
  | Var v -> u32 !(local env v)
  | Load (a, idx) ->
      let c = cell env a in
      load_elem c (s32 (eval env idx))
  | Neg a -> u32 (-s32 (eval env a))
  | Bnot a -> u32 (lnot (eval env a))
  | Binop (op, a, b) -> (
      let x = eval env a in
      let y = eval env b in
      match op with
      | Add -> u32 (x + y)
      | Sub -> u32 (x - y)
      | Mul -> u32 (s32 x * s32 y)
      | And -> x land y
      | Or -> x lor y
      | Xor -> x lxor y
      | Shl -> u32 (x lsl (y land 31))
      | Shr -> u32 (s32 x asr (y land 31))
      | Eq -> if x = y then 1 else 0
      | Ne -> if x <> y then 1 else 0
      | Lt -> if s32 x < s32 y then 1 else 0
      | Le -> if s32 x <= s32 y then 1 else 0
      | Gt -> if s32 x > s32 y then 1 else 0
      | Ge -> if s32 x >= s32 y then 1 else 0)
  | Sqrt a ->
      let n = eval env a in
      let r = ref 0 in
      for bitpos = 15 downto 0 do
        let candidate = !r lor (1 lsl bitpos) in
        if candidate * candidate <= n then r := candidate
      done;
      !r
  | Sub_load _ | Mul_asp _ | Asv_op _ | Sqrt_asp _ | Raw_off _ ->
      err "internal expression form in the reference interpreter"

let constant e =
  match eval { globals = Hashtbl.create 1; locals = [] } e with
  | v -> Some (s32 v)
  | exception Error _ -> None

let loop_guard = 100_000_000

let rec exec env stmt =
  match stmt with
  | Decl (name, e) ->
      let v = eval env e in
      (match List.assoc_opt name env.locals with
      | Some r -> r := v
      | None -> env.locals <- (name, ref v) :: env.locals)
  | Assign (Lvar v, e) -> local env v := eval env e
  | Assign (Larr (a, idx), e) ->
      let value = eval env e in
      store_elem (cell env a) (s32 (eval env idx)) value
  | Aug_assign (lhs, op, e) ->
      let current = match lhs with Lvar v -> Var v | Larr (a, i) -> Load (a, i) in
      exec env (Assign (lhs, Binop (op, current, e)))
  | For l ->
      let saved = env.locals in
      let v = eval env l.lo in
      env.locals <- (l.var, ref v) :: env.locals;
      let r = local env l.var in
      let count = ref 0 in
      while s32 !r < s32 (eval env l.hi) do
        incr count;
        if !count > loop_guard then failwith "Interp: loop guard tripped";
        exec_block env l.body;
        r := u32 (!r + l.step)
      done;
      env.locals <- saved
  | If (c, a, b) -> if eval env c <> 0 then exec_block env a else exec_block env b
  | Anytime { body; commit } ->
      (* Precise semantics: straight through, shared scope. *)
      let saved = env.locals in
      List.iter (exec env) body;
      List.iter (exec env) commit;
      env.locals <- saved
  | Skim_here -> ()

and exec_block env stmts =
  let saved = env.locals in
  List.iter (exec env) stmts;
  env.locals <- saved

let run env (p : program) = exec_block env p.body

let interpret (p : program) ~inputs =
  let env = init p in
  List.iter (fun (name, values) -> set_array env name values) inputs;
  run env p;
  List.map (fun g -> (g.g_name, array env g.g_name)) p.globals
