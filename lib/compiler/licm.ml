open Wn_lang
open Ast

let count_writes name stmts =
  let n = ref 0 in
  let rec go = function
    | Decl (m, _) when m = name -> incr n
    | Assign (Lvar v, _) | Aug_assign (Lvar v, _, _) when v = name -> incr n
    | For l ->
        if l.var = name then incr n;
        List.iter go l.body
    | If (_, a, b) ->
        List.iter go a;
        List.iter go b
    | Anytime { body; commit } ->
        List.iter go body;
        List.iter go commit
    | _ -> ()
  in
  List.iter go stmts;
  !n

type ctx = { mutable fresh : int; skip : int list; mutable next_loop : int }

let fresh_name ctx =
  let n = Printf.sprintf "__licm%d" ctx.fresh in
  ctx.fresh <- ctx.fresh + 1;
  n

(* [outer] carries names bound by enclosing scopes (and earlier
   statements of the current block): re-declaring one of those assigns
   it under the code generator's reuse rule, so such declarations must
   not move — a hoisted copy would also write it on the zero-trip
   path. *)
let rec hoist_block ctx outer stmts =
  match stmts with
  | [] -> []
  | s :: rest ->
      let out, bound = hoist_stmt ctx outer s in
      out @ hoist_block ctx (Names.union bound outer) rest

and hoist_stmt ctx outer s =
  match s with
  | Decl (n, _) -> ([ s ], Names.singleton n)
  | For l ->
      let id = ctx.next_loop in
      ctx.next_loop <- id + 1;
      let body = hoist_block ctx (Names.add l.var outer) l.body in
      let l = { l with body } in
      if List.mem id ctx.skip then ([ For l ], Names.empty)
      else
        let writes = Names.add l.var (writes_of_stmts body) in
        let invariant e =
          pure_arith e
          && Names.is_empty (Names.inter (names_of_expr e) writes)
        in
        let hoistable = function
          | Decl (n, e) ->
              (not (Names.mem n outer)) && count_writes n body = 1 && invariant e
          | _ -> false
        in
        let hoisted, kept = List.partition hoistable body in
        let bound_decl, hi =
          match l.hi with
          | Int _ | Var _ -> ([], l.hi)
          | e when invariant e ->
              let n = fresh_name ctx in
              ([ Decl (n, e) ], Var n)
          | _ -> ([], l.hi)
        in
        let bound =
          List.fold_left
            (fun acc s ->
              match s with Decl (n, _) -> Names.add n acc | _ -> acc)
            Names.empty (hoisted @ bound_decl)
        in
        (hoisted @ bound_decl @ [ For { l with hi; body = kept } ], bound)
  | If (c, a, b) ->
      ([ If (c, hoist_block ctx outer a, hoist_block ctx outer b) ], Names.empty)
  | Anytime { body; commit } ->
      (* shared scope: commit sees body's top-level declarations *)
      let body' = hoist_block ctx outer body in
      let outer' =
        List.fold_left
          (fun acc s -> match s with Decl (n, _) -> Names.add n acc | _ -> acc)
          outer body'
      in
      ([ Anytime { body = body'; commit = hoist_block ctx outer' commit } ],
       Names.empty)
  | s -> ([ s ], Names.empty)

let run stmts =
  Wn_analysis.Ircheck.fit_pool stmts ~attempt:(fun skip ->
      hoist_block { fresh = 0; skip; next_loop = 0 } Names.empty stmts)
