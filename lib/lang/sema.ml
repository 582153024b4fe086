open Ast

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type asv_spec = { asv_bits : int; asv_provisioned : bool }

type info = {
  asp_inputs : (string * int) list;
  asp_outputs : string list;
  asp_output_bits : int option;
  asv_arrays : (string * asv_spec) list;
  globals : (string * Ast.global) list;
}

let asp_input info name = List.assoc_opt name info.asp_inputs
let asv_spec info name = List.assoc_opt name info.asv_arrays
let global info name = List.assoc_opt name info.globals

let check_globals globals =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun g ->
      if Hashtbl.mem seen g.g_name then err "duplicate global %S" g.g_name;
      if g.g_count <= 0 then err "global %S has non-positive size" g.g_name;
      Hashtbl.add seen g.g_name ())
    globals

let check_pragmas pragmas globals =
  let find name =
    match List.find_opt (fun g -> g.g_name = name) globals with
    | Some g -> g
    | None -> err "pragma names unknown array %S" name
  in
  List.iter
    (fun p ->
      let g = find p.prag_array in
      match p.prag_technique with
      | Asp -> (
          match p.prag_direction with
          | Input -> (
              match p.prag_bits with
              | None -> err "asp input %S needs a subword size" p.prag_array
              | Some bits ->
                  if bits < 1 || bits > 16 then
                    err "asp input %S: subword size %d out of range" p.prag_array
                      bits;
                  if ty_bits g.g_ty <> 16 then
                    err
                      "asp input %S must be a 16-bit array (the iterative \
                       multiplier's operand width)"
                      p.prag_array)
          | Output -> ())
      | Asv -> (
          match p.prag_bits with
          | None -> err "asv pragma on %S needs a subword size" p.prag_array
          | Some bits ->
              if bits <> 4 && bits <> 8 && bits <> 16 then
                err "asv %S: subword size must be 4, 8 or 16" p.prag_array;
              if ty_bits g.g_ty mod bits <> 0 then
                err "asv %S: subword size %d does not divide element width %d"
                  p.prag_array bits (ty_bits g.g_ty)))
    pragmas

(* Scope-checked walk over statements.  [locals] maps visible scalar
   locals; globals are always arrays here (scalars are declared as
   1-element arrays). *)
type scope = { globals : (string, Ast.global) Hashtbl.t; mutable locals : string list }

(* An indexed array must be declared, and a constant index — any index
   expression without a variable or a load, folded with the language's
   32-bit semantics — must lie inside it. *)
let check_index sc a idx =
  match Hashtbl.find_opt sc.globals a with
  | None -> err "undeclared array %S" a
  | Some g -> (
      match Interp.constant idx with
      | Some n when n < 0 || n >= g.g_count ->
          err "%s[%d] out of bounds (count %d)" a n g.g_count
      | _ -> ())

let rec check_expr sc ~in_condition e =
  match e with
  | Int _ -> ()
  | Var v ->
      if not (List.mem v sc.locals) then
        if Hashtbl.mem sc.globals v then
          err "array %S used without an index" v
        else err "undeclared variable %S" v
  | Load (a, idx) ->
      check_index sc a idx;
      check_expr sc ~in_condition:false idx
  | Neg a | Bnot a | Sqrt a -> check_expr sc ~in_condition:false a
  | Binop (op, a, b) ->
      if is_comparison op && not in_condition then
        err "comparison %S outside an if-condition" (binop_name op);
      if (op = Shl || op = Shr) && not (match b with Int n -> n >= 0 && n < 32 | _ -> false)
      then err "shift amount must be a constant in [0, 31]";
      check_expr sc ~in_condition:false a;
      check_expr sc ~in_condition:false b
  | Sub_load _ | Mul_asp _ | Asv_op _ | Sqrt_asp _ | Raw_off _ ->
      err "internal expression form in source program"

let check_lhs sc = function
  | Lvar v ->
      if not (List.mem v sc.locals) then
        if Hashtbl.mem sc.globals v then
          err "array %S assigned without an index" v
        else err "assignment to undeclared variable %S" v
  | Larr (a, idx) ->
      check_index sc a idx;
      check_expr sc ~in_condition:false idx

let rec check_stmts sc ~in_anytime stmts =
  let saved = sc.locals in
  List.iter (check_stmt sc ~in_anytime) stmts;
  sc.locals <- saved

and check_stmt sc ~in_anytime stmt =
  match stmt with
  | Decl (name, e) ->
      if Hashtbl.mem sc.globals name then
        err "local %S shadows a global" name;
      check_expr sc ~in_condition:false e;
      sc.locals <- name :: sc.locals
  | Assign (lhs, e) | Aug_assign (lhs, _, e) ->
      check_lhs sc lhs;
      check_expr sc ~in_condition:false e
  | For l ->
      if Hashtbl.mem sc.globals l.var then
        err "loop variable %S shadows a global" l.var;
      check_expr sc ~in_condition:false l.lo;
      check_expr sc ~in_condition:false l.hi;
      let saved = sc.locals in
      sc.locals <- l.var :: sc.locals;
      check_stmts sc ~in_anytime l.body;
      sc.locals <- saved
  | If (cond, a, b) ->
      (match cond with
      | Binop (op, _, _) when is_comparison op -> ()
      | _ -> err "if-condition must be a comparison");
      check_expr sc ~in_condition:true cond;
      check_stmts sc ~in_anytime a;
      check_stmts sc ~in_anytime b
  | Anytime { body; commit } ->
      if in_anytime then err "nested anytime blocks";
      (* The commit block sees the body's top-level locals (the
         accumulators it materialises). *)
      let saved = sc.locals in
      List.iter (check_stmt sc ~in_anytime:true) body;
      check_stmts sc ~in_anytime:true commit;
      sc.locals <- saved
  | Skim_here -> err "internal statement form in source program"

let analyze (p : program) =
  check_globals p.globals;
  check_pragmas p.pragmas p.globals;
  let globals_tbl = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace globals_tbl g.g_name g) p.globals;
  let sc = { globals = globals_tbl; locals = [] } in
  check_stmts sc ~in_anytime:false p.body;
  let asp_inputs =
    List.filter_map
      (fun pr ->
        match (pr.prag_technique, pr.prag_direction, pr.prag_bits) with
        | Asp, Input, Some bits -> Some (pr.prag_array, bits)
        | _ -> None)
      p.pragmas
  in
  let asp_outputs =
    List.filter_map
      (fun pr ->
        match (pr.prag_technique, pr.prag_direction) with
        | Asp, Output -> Some pr.prag_array
        | _ -> None)
      p.pragmas
  in
  let asv_arrays =
    List.filter_map
      (fun pr ->
        match (pr.prag_technique, pr.prag_bits) with
        | Asv, Some bits ->
            Some
              ( pr.prag_array,
                { asv_bits = bits; asv_provisioned = pr.prag_provisioned } )
        | _ -> None)
      p.pragmas
  in
  let asp_output_bits =
    List.find_map
      (fun pr ->
        match (pr.prag_technique, pr.prag_direction) with
        | Asp, Output -> pr.prag_bits
        | _ -> None)
      p.pragmas
  in
  {
    asp_inputs;
    asp_outputs;
    asp_output_bits;
    asv_arrays;
    globals = List.map (fun g -> (g.g_name, g)) p.globals;
  }
