open Wn_isa
open Wn_lang

type mode = Precise | Anytime

type passes = {
  constfold : bool;
  strength_reduce : bool;
  licm : bool;
  addr_cse : bool;
}

let all_passes =
  { constfold = true; strength_reduce = true; licm = true; addr_cse = true }

let no_passes =
  { constfold = false; strength_reduce = false; licm = false; addr_cse = false }

type options = { mode : mode; vector_loads : bool; passes : passes }

let precise = { mode = Precise; vector_loads = false; passes = all_passes }
let anytime = { mode = Anytime; vector_loads = false; passes = all_passes }

let anytime_vector_loads =
  { mode = Anytime; vector_loads = true; passes = all_passes }

(* What a pass rewrites: the IR up to codegen, which turns it into the
   assembly the passes after it rewrite. *)
type step =
  | Ir of (options -> Sema.info -> Transform.ir -> Transform.ir)
  | Codegen
  | Asm of (Asm.program -> Asm.program)

(* The pipeline: a build runs, in this order, every pass its options
   enable.  Algorithm 1's sub-passes run in anytime builds only; a
   precise build leaves its regions for codegen to inline. *)
let pipeline =
  let anytime o = o.mode = Anytime in
  let body f = Ir (fun _ _ ir -> { ir with body = f ir }) in
  [
    ( "anytime-swp",
      anytime,
      Ir (fun o -> Transform.swp ~vector_loads:o.vector_loads) );
    ("anytime-sqrt", anytime, Ir (fun _ -> Transform.sqrt));
    ("anytime-swv", anytime, Ir (fun _ -> Transform.swv));
    ( "constfold",
      (fun o -> o.passes.constfold),
      body (fun ir -> Constfold.run ir.body) );
    ( "strength-reduce",
      (fun o -> o.passes.strength_reduce),
      body (fun ir -> Strength_reduce.run ~globals:ir.storage_globals ir.body)
    );
    ("licm", (fun o -> o.passes.licm), body (fun ir -> Licm.run ir.body));
    ("codegen", (fun _ -> true), Codegen);
    ("addr-cse", (fun o -> o.passes.addr_cse), Asm Addr_cse.run);
  ]

let enabled options = List.filter (fun (_, on, _) -> on options) pipeline

let pass_names options = List.map (fun (name, _, _) -> name) (enabled options)

type symbol = {
  sym_global : Ast.global;
  sym_addr : int;
  sym_layout : Layout.t;
}

type t = {
  source : Ast.program;
  info : Sema.info;
  options : options;
  asm : Asm.program;
  program : int Instr.t array;
  machine_code : int32 array;
  symbols : (string * symbol) list;
  storage : (string * int * int) list;
  data_bytes : int;
  dumps : (string * string) list;
}

exception Error of string

let err stage msg = raise (Error (Printf.sprintf "%s: %s" stage msg))

let pass_err pass msg = err (Printf.sprintf "pass %s" pass) msg

let storage_bytes (g : Ast.global) = g.g_count * Ast.ty_bytes g.g_ty

let align4 n = (n + 3) land lnot 3

let verify ?runtime ?budget ?cycle_energy t =
  Wn_analysis.Progress.analyze ?runtime ?budget ?cycle_energy
    (Wn_analysis.Cfg.build t.program)

let addr_symbols storage =
  List.map
    (fun (sym_name, sym_addr, sym_bytes) ->
      { Wn_analysis.Addr.sym_name; sym_addr; sym_bytes })
    storage

(* The structural findings plus forward progress at the default runtime
   (Clank watchdog) and the paper's default capacitor: a program whose
   WCEC regions cannot fit one charge is broken for any deployment, so
   the lint gate sees it. *)
let findings structural t =
  List.sort Wn_analysis.Diag.compare
    (structural @ Wn_analysis.Progress.diagnostics (verify t))

let lint t =
  findings
    (Wn_analysis.Check.program ~symbols:(addr_symbols t.storage) t.program)
    t

let compile ?(options = anytime) ?(strict = false) ?dump_after
    (source : Ast.program) =
  let info = try Sema.analyze source with Sema.Error e -> err "sema" e in
  let dumps = ref [] in
  let record name pp x =
    if dump_after = Some name then
      dumps := (name, Format.asprintf "%a" pp x) :: !dumps
  in
  (* The source is linted once and every pass's output after it.  Each
     stage reports only the findings its input did not have, so a
     finding is blamed on the stage that introduced it, the source
     included, with all of that stage's new findings; under [strict] an
     error fails that stage.  Findings are matched without their pc,
     which a pass that moves code shifts, and counted, so a second copy
     of a finding is new.  Returns the stage's findings, the next
     stage's input. *)
  let check stage ~input diags =
    let unplaced d = { d with Wn_analysis.Diag.pc = None } in
    let rec take d = function
      | [] -> None
      | d' :: rest when d' = d -> Some rest
      | d' :: rest -> Option.map (List.cons d') (take d rest)
    in
    let left = ref (List.map unplaced input) in
    let is_new d =
      match take (unplaced d) !left with
      | Some rest -> left := rest; false
      | None -> true
    in
    (match List.filter is_new diags with
    | [] -> ()
    | fresh ->
        let report = Format.asprintf "%a" Wn_analysis.Diag.pp_report fresh in
        if strict && Wn_analysis.Diag.worst fresh = Some Wn_analysis.Diag.Error
        then err stage report
        else Format.eprintf "%s:@.%s@." stage report);
    diags
  in
  let passes = enabled options in
  let lint_ir (ir : Transform.ir) =
    Wn_analysis.Ircheck.stmts ~globals:ir.storage_globals ir.body
  in
  (* --- IR passes -------------------------------------------------- *)
  let ir_pass ((ir : Transform.ir), input) (name, _, step) =
    match step with
    | Ir f ->
        let ir =
          try f options info ir with Transform.Error e -> pass_err name e
        in
        let diags = check ("pass " ^ name) ~input (lint_ir ir) in
        record name Ast.pp_block ir.body;
        (ir, diags)
    | Codegen | Asm _ -> (ir, input)
  in
  let ir, ir_diags =
    let ir =
      { Transform.body = source.body; storage_globals = source.globals;
        layouts = [] }
    in
    List.fold_left ir_pass (ir, check "source" ~input:[] (lint_ir ir)) passes
  in
  (* --- address assignment ----------------------------------------- *)
  let addresses, data_bytes =
    List.fold_left
      (fun (acc, next) (g : Ast.global) ->
        ((g.g_name, next) :: acc, align4 (next + storage_bytes g)))
      ([], 0) ir.storage_globals
  in
  let addresses = List.rev addresses in
  let storage =
    List.map
      (fun (g : Ast.global) ->
        (g.g_name, List.assoc g.g_name addresses, storage_bytes g))
      ir.storage_globals
  in
  (* --- assembly passes -------------------------------------------- *)
  (* Each pass's output is assembled and checked once; the last one's
     program and findings are the build's. *)
  let lint_asm name ~input asm =
    match Asm.assemble asm with
    | Error e -> pass_err name e
    | Ok program ->
        let diags =
          check ("pass " ^ name) ~input
            (Wn_analysis.Check.program ~symbols:(addr_symbols storage) program)
        in
        record name Asm.pp_listing asm;
        Some (asm, program, diags)
  in
  let asm_pass last (name, _, step) =
    match (step, last) with
    | Ir _, _ -> last
    | Codegen, None ->
        let cg_globals =
          List.map (fun (g : Ast.global) -> (g.g_name, g)) ir.storage_globals
        in
        lint_asm name ~input:ir_diags
          (try
             Codegen.generate
               { cg_body = ir.body; cg_globals; cg_addresses = addresses }
           with Codegen.Error e -> err "codegen" e)
    | Asm f, Some (asm, _, input) -> lint_asm name ~input (f asm)
    | Codegen, Some _ | Asm _, None ->
        invalid_arg "Compile.pipeline: codegen must precede every asm pass"
  in
  let asm, program, _ =
    Option.get (List.fold_left asm_pass None passes)
  in
  (match dump_after with
  | Some name when not (List.mem_assoc name !dumps) ->
      err "dump-after"
        (Printf.sprintf "unknown or disabled pass %S; this build runs: %s" name
           (String.concat ", " (pass_names options)))
  | _ -> ());
  (* --- final program ---------------------------------------------- *)
  let machine_code =
    try Encoding.encode_program program
    with Invalid_argument e -> err "encode" e
  in
  (* Round-trip self-check: the binary must decode to the program we
     are about to execute. *)
  (match Encoding.decode_program machine_code with
  | Ok decoded when decoded = program -> ()
  | Ok _ -> err "encode" "round-trip mismatch"
  | Error e -> err "decode" e);
  let symbols =
    List.map
      (fun (g : Ast.global) ->
        let addr =
          match List.assoc_opt g.g_name addresses with
          | Some a -> a
          | None -> err "layout" ("no address for " ^ g.g_name)
        in
        let layout =
          match List.assoc_opt g.g_name ir.layouts with
          | Some l -> l
          | None -> Layout.row_major g.g_ty
        in
        (g.g_name, { sym_global = g; sym_addr = addr; sym_layout = layout }))
      source.globals
  in
  let t =
    { source; info; options; asm; program; machine_code; symbols; storage;
      data_bytes; dumps = List.rev !dumps }
  in
  (* Post-codegen self-check: the static verifier must accept its own
     output, forward progress included. *)
  ignore
    (check "verify" ~input:[]
       (List.sort Wn_analysis.Diag.compare
          (Wn_analysis.Progress.diagnostics (verify t))));
  t

let compile_source ?options ?strict ?dump_after src =
  let program =
    try Parser.parse src with
    | Parser.Error e -> err "parse" e
    | Lexer.Error e -> err "lex" e
  in
  compile ?options ?strict ?dump_after program

let symbol t name =
  match List.assoc_opt name t.symbols with
  | Some s -> s
  | None -> err "symbol" ("unknown symbol " ^ name)

let code_size_bytes t = Encoding.code_size_bytes t.program

let pp_listing ppf t = Asm.pp_listing ppf t.asm
