open Wn_lang
open Ast

let iv_prefix = "__sr_iv"

let u32 v = v land 0xFFFF_FFFF

(* ------------------------------------------------------------------ *)
(* Affine decomposition: idx = coeff*var + rest + k (mod 2^32)         *)

type affine = { coeff : int; rest : expr option; k : int }

let add_rest a b =
  match (a, b) with
  | None, r | r, None -> r
  | Some a, Some b -> Some (Binop (Add, a, b))

let sub_rest a b =
  match (a, b) with
  | r, None -> r
  | None, Some b -> Some (Binop (Sub, Int 0, b))
  | Some a, Some b -> Some (Binop (Sub, a, b))

let scale_rest r n =
  match r with None -> None | Some e -> Some (Binop (Mul, e, Int n))

let decompose ~var ~invariant idx =
  let rec go e =
    match e with
    | Int n -> Some { coeff = 0; rest = None; k = u32 n }
    | Var v when v = var -> Some { coeff = 1; rest = None; k = 0 }
    | Var v when invariant v -> Some { coeff = 0; rest = Some e; k = 0 }
    | Binop (Add, a, b) -> (
        match (go a, go b) with
        | Some a, Some b ->
            Some
              {
                coeff = u32 (a.coeff + b.coeff);
                rest = add_rest a.rest b.rest;
                k = u32 (a.k + b.k);
              }
        | _ -> None)
    | Binop (Sub, a, b) -> (
        match (go a, go b) with
        | Some a, Some b ->
            Some
              {
                coeff = u32 (a.coeff - b.coeff);
                rest = sub_rest a.rest b.rest;
                k = u32 (a.k - b.k);
              }
        | _ -> None)
    | Binop (Mul, a, b) -> (
        (* one side must fold to a constant for the coefficient to
           stay a known integer *)
        match (Constfold.expr a, Constfold.expr b) with
        | Int n, _ -> scaled b n
        | _, Int n -> scaled a n
        | _ -> whole_invariant e)
    | Binop (Shl, a, b) -> (
        match Constfold.expr b with
        | Int s when s >= 0 && s < 32 -> scaled a (1 lsl s)
        | _ -> whole_invariant e)
    | Neg a -> ( match go a with Some a -> Some (neg a) | None -> None)
    | _ -> whole_invariant e
  and scaled e n =
    match go e with
    | Some a ->
        Some
          {
            coeff = u32 (a.coeff * u32 n);
            rest = scale_rest a.rest (u32 n);
            k = u32 (a.k * u32 n);
          }
    | None -> None
  and neg a =
    { coeff = u32 (-a.coeff); rest = scale_rest a.rest (u32 (-1)); k = u32 (-a.k) }
  and whole_invariant e =
    if pure_arith e && Names.for_all invariant (names_of_expr e) then
      Some { coeff = 0; rest = Some e; k = 0 }
    else None
  in
  go idx

(* ------------------------------------------------------------------ *)
(* Per-loop reduction                                                  *)

type clazz = {
  cl_coeff : int;
  cl_rest : expr option; (* structural identity keys the class *)
  cl_eb : int; (* element bytes of the accessed array *)
  mutable cl_hits : int;
  mutable cl_name : string; (* assigned when the class is materialised *)
}

type ctx = {
  elem_bytes : string -> int option; (* storage element width per array *)
  fresh : unit -> string;
  skip : int list; (* pre-order loop ids excluded this attempt *)
  mutable next_loop : int; (* pre-order loop counter *)
}

(* Collect (and later rewrite) the array accesses of a loop body.  The
   two traversals share this shape: [on_idx arr idx] sees every index
   position — [Load], [Sub_load] and [Larr] — and returns the
   replacement index.  Indices that are already [Raw_off] are left
   alone; when an index is not rewritten its own sub-loads still get a
   chance. *)
let rec map_indices on_idx stmts = List.map (map_idx_stmt on_idx) stmts

and map_idx_stmt on_idx s =
  let rec rx e =
    match e with
    | Load (a, i) -> Load (a, rx_idx a i)
    | Sub_load sl -> Sub_load { sl with sl_index = rx_idx sl.sl_arr sl.sl_index }
    | Mul_asp (a, b, spec) -> Mul_asp (rx a, rx b, spec)
    | Asv_op (op, w, a, b) -> Asv_op (op, w, rx a, rx b)
    | Binop (op, a, b) -> Binop (op, rx a, rx b)
    | Neg a -> Neg (rx a)
    | Bnot a -> Bnot (rx a)
    | Sqrt a -> Sqrt (rx a)
    | Sqrt_asp (a, bits) -> Sqrt_asp (rx a, bits)
    | Int _ | Var _ | Raw_off _ -> e
  and rx_idx arr i =
    match i with
    | Raw_off _ -> i
    | _ -> ( match on_idx arr i with Some i' -> i' | None -> rx i)
  in
  let rl = function Lvar v -> Lvar v | Larr (a, i) -> Larr (a, rx_idx a i) in
  match s with
  | Decl (n, e) -> Decl (n, rx e)
  | Assign (lhs, e) -> Assign (rl lhs, rx e)
  | Aug_assign (lhs, op, e) -> Aug_assign (rl lhs, op, rx e)
  | For l ->
      For
        {
          l with
          lo = rx l.lo;
          hi = rx l.hi;
          body = map_indices on_idx l.body;
        }
  | If (c, a, b) -> If (rx c, map_indices on_idx a, map_indices on_idx b)
  | Anytime { body; commit } ->
      Anytime
        { body = map_indices on_idx body; commit = map_indices on_idx commit }
  | Skim_here -> Skim_here

(* Reduce one loop (body already processed inner-first).  Returns the
   statements that replace the [For]: induction-variable declarations
   followed by the rewritten loop. *)
let reduce_loop ctx (l : for_loop) : stmt list =
  let keep = [ For l ] in
  let body_writes = Names.add l.var (writes_of_stmts l.body) in
  if Names.mem l.var (writes_of_stmts l.body) then keep
  else
    let invariant v = not (Names.mem v body_writes) in
    (* Pass 1: discover induction-variable classes. *)
    let classes : clazz list ref = ref [] in
    let class_of arr idx =
      match ctx.elem_bytes arr with
      | None -> None
      | Some eb -> (
          match decompose ~var:l.var ~invariant idx with
          | Some a when a.coeff <> 0 ->
              let cl =
                match
                  List.find_opt
                    (fun c ->
                      c.cl_coeff = a.coeff && c.cl_rest = a.rest && c.cl_eb = eb)
                    !classes
                with
                | Some c -> c
                | None ->
                    let c =
                      {
                        cl_coeff = a.coeff;
                        cl_rest = a.rest;
                        cl_eb = eb;
                        cl_hits = 0;
                        cl_name = "";
                      }
                    in
                    classes := !classes @ [ c ];
                    c
              in
              Some (cl, a.k)
          | _ -> None)
    in
    ignore
      (map_indices
         (fun arr idx ->
           (match class_of arr idx with
           | Some (cl, _) -> cl.cl_hits <- cl.cl_hits + 1
           | None -> ());
           None)
         l.body);
    if !classes = [] then keep
    else begin
      (* Pass 2: name the classes and rewrite the accesses. *)
      List.iter (fun c -> c.cl_name <- ctx.fresh ()) !classes;
      let body =
        map_indices
          (fun arr idx ->
            match class_of arr idx with
            | Some (cl, k) ->
                let off = u32 (k * cl.cl_eb) in
                Some
                  (Raw_off
                     (if off = 0 then Var cl.cl_name
                      else Binop (Add, Var cl.cl_name, Int off)))
            | None -> None)
          l.body
      in
      let init cl =
        let scaled_lo = Binop (Mul, Int cl.cl_coeff, l.lo) in
        let base =
          match cl.cl_rest with
          | None -> scaled_lo
          | Some r -> Binop (Add, r, scaled_lo)
        in
        Constfold.expr (Binop (Mul, base, Int cl.cl_eb))
      in
      let inc cl = u32 (cl.cl_coeff * l.step * cl.cl_eb) in
      (* Loop-variable elimination: promote one class to be the loop
         variable when the original variable is otherwise dead and the
         rescaled bounds stay small enough for CMP's immediate form. *)
      let var_dead =
        let read = ref false in
        List.iter
          (iter_exprs_stmt (fun e ->
               match e with Var v when v = l.var -> read := true | _ -> ()))
          body;
        not !read
      in
      let promotable cl =
        match (l.lo, l.hi, init cl) with
        | Int lo, Int hi, Int iv0
          when var_dead && l.step >= 1 && lo >= 0 && hi >= lo && hi <= 0x7FFF
               && cl.cl_coeff >= 1
               && cl.cl_coeff <= 0xFFFF
               && inc cl >= 1
               && inc cl <= 0xFFF ->
            let trips = (hi - lo + l.step - 1) / l.step in
            let hi' = iv0 + (trips * inc cl) in
            if hi' <= 0xFFFF then Some (iv0, hi') else None
        | _ -> None
      in
      let primary =
        List.fold_left
          (fun best cl ->
            match (best, promotable cl) with
            | Some _, _ -> best
            | None, Some b -> Some (cl, b)
            | None, None -> None)
          None !classes
      in
      let bumps =
        List.filter_map
          (fun cl ->
            match primary with
            | Some (p, _) when p == cl -> None
            | _ -> Some (Aug_assign (Lvar cl.cl_name, Add, Int (inc cl))))
          !classes
      in
      let decls =
        List.filter_map
          (fun cl ->
            match primary with
            | Some (p, _) when p == cl -> None
            | _ -> Some (Decl (cl.cl_name, init cl)))
          !classes
      in
      let loop =
        match primary with
        | Some (p, (iv0, hi')) ->
            For
              {
                var = p.cl_name;
                lo = Int iv0;
                hi = Int hi';
                step = inc p;
                body = body @ bumps;
              }
        | None -> For { l with body = body @ bumps }
      in
      decls @ [ loop ]
    end

(* ------------------------------------------------------------------ *)
(* Single-use declaration inlining                                     *)

let is_iv_name n = String.length n >= 7 && String.sub n 0 7 = iv_prefix

let count_reads name stmts =
  let n = ref 0 in
  List.iter
    (iter_exprs_stmt (fun e ->
         match e with Var v when v = name -> incr n | _ -> ()))
    stmts;
  !n

let rec count_iv_init_reads name stmts =
  List.fold_left
    (fun acc s ->
      acc
      +
      match s with
      | Decl (m, init) when is_iv_name m ->
          let n = ref 0 in
          iter_expr
            (fun e -> match e with Var v when v = name -> incr n | _ -> ())
            init;
          !n
      | For l -> count_iv_init_reads name l.body
      | If (_, a, b) -> count_iv_init_reads name a + count_iv_init_reads name b
      | Anytime { body; commit } ->
          count_iv_init_reads name body + count_iv_init_reads name commit
      | _ -> 0)
    0 stmts

let subst_in_iv_inits name value stmts =
  let sub init =
    Constfold.expr
      (map_expr (function Var v when v = name -> value | e -> e) init)
  in
  let rec go s =
    match s with
    | Decl (m, init) when is_iv_name m -> Decl (m, sub init)
    | For l -> For { l with body = List.map go l.body }
    | If (c, a, b) -> If (c, List.map go a, List.map go b)
    | Anytime { body; commit } ->
        Anytime { body = List.map go body; commit = List.map go commit }
    | s -> s
  in
  List.map go stmts

(* A pure declaration whose every read sits in an induction-variable
   initialiser (and whose free variables stay unwritten for the rest of
   its block) is substituted into those initialisers and deleted,
   freeing its register.  A read-free pure declaration is simply
   deleted.  [outer] carries the names already bound by enclosing
   scopes: re-declaring one of those is an assignment to it under the
   code generator's reuse rule, so such declarations must stay. *)
let rec inline_block outer stmts =
  match stmts with
  | [] -> []
  | (Decl (n, e) as s) :: rest ->
      let fvs = names_of_expr e in
      let rest_writes = writes_of_stmts rest in
      let inlinable =
        pure_arith e
        && (not (Names.mem n outer))
        && (not (Names.mem n fvs))
        && (not (Names.mem n rest_writes))
        && Names.is_empty (Names.inter fvs rest_writes)
      in
      if inlinable && count_reads n rest = 0 then inline_block outer rest
      else if
        inlinable && count_reads n rest = count_iv_init_reads n rest
      then inline_block outer (subst_in_iv_inits n e rest)
      else inline_stmt outer s :: inline_block (Names.add n outer) rest
  | s :: rest -> inline_stmt outer s :: inline_block outer rest

and inline_stmt outer s =
  match s with
  | For l ->
      For { l with body = inline_block (Names.add l.var outer) l.body }
  | If (c, a, b) -> If (c, inline_block outer a, inline_block outer b)
  | Anytime { body; commit } ->
      (* shared scope: commit sees body's declarations *)
      let body' = inline_block outer body in
      let outer' =
        List.fold_left
          (fun acc s -> match s with Decl (n, _) -> Names.add n acc | _ -> acc)
          outer body'
      in
      Anytime { body = body'; commit = inline_block outer' commit }
  | s -> s

(* ------------------------------------------------------------------ *)
(* Driver with register-budget retry                                   *)

let rec sr_block ctx stmts = List.concat_map (sr_stmt ctx) stmts

and sr_stmt ctx s =
  match s with
  | For l ->
      let id = ctx.next_loop in
      ctx.next_loop <- id + 1;
      let body = sr_block ctx l.body in
      let l = { l with body } in
      if List.mem id ctx.skip then [ For l ] else reduce_loop ctx l
  | If (c, a, b) -> [ If (c, sr_block ctx a, sr_block ctx b) ]
  | Anytime { body; commit } ->
      [ Anytime { body = sr_block ctx body; commit = sr_block ctx commit } ]
  | s -> [ s ]

let run ~globals stmts =
  let widths =
    List.map (fun g -> (g.g_name, ty_bytes g.g_ty)) globals
  in
  let elem_bytes arr = List.assoc_opt arr widths in
  let attempt skip =
    let counter = ref 0 in
    let fresh () =
      let n = Printf.sprintf "%s%d" iv_prefix !counter in
      incr counter;
      n
    in
    let ctx = { elem_bytes; fresh; skip; next_loop = 0 } in
    inline_block Names.empty (sr_block ctx stmts)
  in
  Wn_analysis.Ircheck.fit_pool ~attempt stmts
