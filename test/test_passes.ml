(* The optimizer-pass pipeline: per-pass differential semantics, the
   strength-reduction retirement property, pass-blamed diagnostics and
   the codegen RMW address-materialization fix. *)

open Wn_workloads

let passes_without name =
  let all = Wn_compiler.Compile.all_passes in
  match name with
  | "constfold" -> { all with Wn_compiler.Compile.constfold = false }
  | "strength-reduce" ->
      { all with Wn_compiler.Compile.strength_reduce = false }
  | "licm" -> { all with Wn_compiler.Compile.licm = false }
  | "addr-cse" -> { all with Wn_compiler.Compile.addr_cse = false }
  | _ -> invalid_arg "passes_without"

let optional_passes = [ "constfold"; "strength-reduce"; "licm"; "addr-cse" ]

let run_once build inputs =
  let machine = Wn_core.Runner.machine build in
  Wn_core.Runner.load_sample build machine inputs;
  let o = Wn_core.Runner.run_always_on machine in
  (o, Wn_core.Runner.output build machine)

(* ---------------- per-pass differential harness ----------------

   For every workload and every optional pass: the always-on executor
   outcome with the pass enabled must be semantics-preserving vs the
   same build with the pass disabled — bit-identical output, same
   completion and skim status — and never cost more active cycles. *)

let test_differential () =
  List.iter
    (fun (w : Workload.t) ->
      let cfg = { Workload.bits = 8; provisioned = true } in
      let rng = Wn_util.Rng.create 7 in
      let inputs = w.Workload.fresh_inputs rng in
      let on = Wn_core.Runner.build w cfg in
      let o_on, out_on = run_once on inputs in
      List.iter
        (fun pass ->
          let off =
            Wn_core.Runner.build ~passes:(passes_without pass) w cfg
          in
          let o_off, out_off = run_once off inputs in
          let ctx = Printf.sprintf "%s without %s" w.Workload.name pass in
          if out_on <> out_off then
            Alcotest.failf "%s: outputs diverge" ctx;
          Alcotest.(check bool)
            (ctx ^ ": completed agrees")
            o_off.Wn_runtime.Executor.completed
            o_on.Wn_runtime.Executor.completed;
          Alcotest.(check bool)
            (ctx ^ ": skimmed agrees")
            o_off.Wn_runtime.Executor.skimmed o_on.Wn_runtime.Executor.skimmed;
          if
            o_on.Wn_runtime.Executor.active_cycles
            > o_off.Wn_runtime.Executor.active_cycles
          then
            Alcotest.failf "%s: enabling the pass cost cycles (%d > %d)" ctx
              o_on.Wn_runtime.Executor.active_cycles
              o_off.Wn_runtime.Executor.active_cycles)
        optional_passes)
    (Suite.extended Workload.Small)

(* Under a scripted intermittent trace the optimized and unoptimized
   builds must both finish the task, produce the same output as their
   own always-on run (completion means full precision was reached), and
   the optimizer must not add outages. *)
let test_scripted_trace () =
  let w = Suite.find Workload.Small "MatAdd" in
  let cfg = { Workload.bits = 8; provisioned = true } in
  let rng = Wn_util.Rng.create 7 in
  let inputs = w.Workload.fresh_inputs rng in
  let intermittent build =
    let trace =
      Wn_power.Trace.square ~on_ms:3 ~off_ms:30 ~power:2e-3 ~duration_s:4.0
    in
    let supply =
      Wn_power.Supply.create ~trace
        ~capacitor:(Wn_power.Capacitor.create ()) ()
    in
    let machine = Wn_core.Runner.machine build in
    Wn_core.Runner.load_sample build machine inputs;
    let o =
      Wn_runtime.Executor.run
        ~policy:(Wn_runtime.Executor.Clank Wn_runtime.Executor.default_clank)
        ~machine ~supply ()
    in
    (o, Wn_core.Runner.output build machine)
  in
  let on = Wn_core.Runner.build w cfg in
  let off = Wn_core.Runner.build ~passes:Wn_compiler.Compile.no_passes w cfg in
  let o_on, out_on = intermittent on in
  let o_off, out_off = intermittent off in
  Alcotest.(check bool) "optimized completes" true
    o_on.Wn_runtime.Executor.completed;
  Alcotest.(check bool) "unoptimized completes" true
    o_off.Wn_runtime.Executor.completed;
  (* a task that completed without a skim jump carries the same output
     its always-on run does; skim completion is legitimately
     approximate, so only the quality has to stay sane *)
  (if not o_on.Wn_runtime.Executor.skimmed then
     let _, always_on = run_once on inputs in
     if out_on <> always_on then
       Alcotest.fail "optimized intermittent output differs from always-on");
  (if not o_off.Wn_runtime.Executor.skimmed then
     let _, always_off = run_once off inputs in
     if out_off <> always_off then
       Alcotest.fail "unoptimized intermittent output differs from always-on");
  let golden = w.Workload.golden inputs in
  let nrmse out = Wn_core.Runner.nrmse_pct ~reference:golden out in
  if not (Float.is_finite (nrmse out_on) && nrmse out_on < 50.0) then
    Alcotest.failf "optimized quality collapsed (NRMSE %.2f%%)"
      (nrmse out_on);
  if not (Float.is_finite (nrmse out_off) && nrmse out_off < 50.0) then
    Alcotest.failf "unoptimized quality collapsed (NRMSE %.2f%%)"
      (nrmse out_off);
  if
    o_on.Wn_runtime.Executor.outage_count
    > o_off.Wn_runtime.Executor.outage_count
  then
    Alcotest.failf "optimizer added outages (%d > %d)"
      o_on.Wn_runtime.Executor.outage_count
      o_off.Wn_runtime.Executor.outage_count

(* ---------------- strength reduction retires strictly fewer ---------------- *)

let sr_only =
  { Wn_compiler.Compile.no_passes with Wn_compiler.Compile.strength_reduce = true }

let retired_of source passes =
  let options =
    { Wn_compiler.Compile.precise with Wn_compiler.Compile.passes = passes }
  in
  let compiled = Wn_compiler.Compile.compile_source ~options source in
  let mem =
    Wn_mem.Memory.create
      ~size:(compiled.Wn_compiler.Compile.data_bytes + 64)
  in
  let machine =
    Wn_machine.Machine.create
      ~program:compiled.Wn_compiler.Compile.program ~mem ()
  in
  let o =
    Wn_runtime.Executor.run ~machine ~supply:(Wn_power.Supply.always_on ()) ()
  in
  if not o.Wn_runtime.Executor.completed then failwith "did not complete";
  o.Wn_runtime.Executor.retired

let prop_sr_strictly_fewer =
  QCheck.Test.make ~count:60
    ~name:"strength-reduced loops retire strictly fewer instructions"
    QCheck.(pair (int_range 1 6) (int_range 2 8))
    (fun (rows, cols) ->
      let n = rows * cols in
      let source =
        Printf.sprintf
          "uint32 a[%d];\nuint32 x[%d];\n\n\
           kernel walk() {\n\
          \  for (i = 0; i < %d; i += 1) {\n\
          \    for (j = 0; j < %d; j += 1) {\n\
          \      x[i * %d + j] = a[i * %d + j] + 1;\n\
          \    }\n\
          \  }\n\
           }\n"
          n n rows cols cols cols
      in
      retired_of source sr_only
      < retired_of source Wn_compiler.Compile.no_passes)

(* ---------------- pass-blamed diagnostics ----------------

   Regression for the pass-name threading: a transform failure must
   name its originating pass in the raised message. *)

let test_error_names_pass () =
  (* vector_loads on a benchmark whose asp arrays carry no asv pragmas
     fails inside the lowering pass *)
  let w = Suite.find Workload.Small "Conv2d" in
  let source = w.Workload.source { Workload.bits = 8; provisioned = true } in
  match
    Wn_compiler.Compile.compile_source
      ~options:Wn_compiler.Compile.anytime_vector_loads source
  with
  | _ -> Alcotest.fail "expected the lowering pass to refuse vector_loads"
  | exception Wn_compiler.Compile.Error msg ->
      Alcotest.(check string) "names the sub-pass"
        "pass anytime-swp: vector_loads requires the asp arrays to also \
         carry asv pragmas"
        msg

(* ---------------- codegen RMW address materialization ----------------

   [x[i] op= e] must compute the element address once and use it for
   both the load and the store — independent of addr-cse. *)

let count_insns (compiled : Wn_compiler.Compile.t) p =
  Array.fold_left
    (fun acc i -> if p i then acc + 1 else acc)
    0 compiled.Wn_compiler.Compile.program

let test_rmw_single_address () =
  let source =
    "uint32 x[16];\n\nkernel bump() {\n  x[3] += 5;\n}\n"
  in
  let options =
    { Wn_compiler.Compile.precise with
      Wn_compiler.Compile.passes = Wn_compiler.Compile.no_passes }
  in
  let compiled = Wn_compiler.Compile.compile_source ~options source in
  (* the element address constant appears in exactly one materializing
     instruction: the old desugared path built it twice *)
  let addr =
    (Wn_compiler.Compile.symbol compiled "x").Wn_compiler.Compile.sym_addr
    + (3 * 4)
  in
  let materializes = function
    | Wn_isa.Instr.Mov_imm (_, imm) -> imm land 0xFFFF = addr land 0xFFFF
    | _ -> false
  in
  Alcotest.(check int) "address materialized once" 1
    (count_insns compiled materializes);
  (* and the whole statement stays tight: load, modify, store around it *)
  let is_mem = function
    | Wn_isa.Instr.Ldr _ | Wn_isa.Instr.Str _ | Wn_isa.Instr.Ldr_reg _
    | Wn_isa.Instr.Str_reg _ ->
        true
    | _ -> false
  in
  Alcotest.(check int) "one load, one store" 2 (count_insns compiled is_mem)

(* A loop-carried RMW keeps the same shape with a register index. *)
let test_rmw_indexed_instruction_count () =
  (* the pad array keeps x's base address nonzero, so a Mov_imm of the
     base is distinguishable from the loop counter's init *)
  let source =
    "uint32 pad[4];\n\
     uint32 x[16];\n\n\
     kernel bump() {\n\
    \  for (i = 0; i < 16; i += 1) {\n\
    \    x[i] += 1;\n\
    \  }\n\
     }\n"
  in
  let options =
    { Wn_compiler.Compile.precise with
      Wn_compiler.Compile.passes = Wn_compiler.Compile.no_passes }
  in
  let compiled = Wn_compiler.Compile.compile_source ~options source in
  let is_mem = function
    | Wn_isa.Instr.Ldr _ | Wn_isa.Instr.Str _ | Wn_isa.Instr.Ldr_reg _
    | Wn_isa.Instr.Str_reg _ ->
        true
    | _ -> false
  in
  Alcotest.(check int) "one load and one store in the loop" 2
    (count_insns compiled is_mem);
  (* the base address is built once per iteration, not once per access *)
  let base =
    (Wn_compiler.Compile.symbol compiled "x").Wn_compiler.Compile.sym_addr
  in
  let materializes_base = function
    | Wn_isa.Instr.Mov_imm (_, imm) -> imm = base
    | _ -> false
  in
  Alcotest.(check int) "base materialized once" 1
    (count_insns compiled materializes_base)

(* ---------------- pass bookkeeping ---------------- *)

let test_pass_names () =
  Alcotest.(check (list string))
    "full pipeline"
    [ "anytime-swp"; "anytime-sqrt"; "anytime-swv"; "constfold";
      "strength-reduce"; "licm"; "codegen"; "addr-cse" ]
    (Wn_compiler.Compile.pass_names Wn_compiler.Compile.anytime);
  Alcotest.(check (list string))
    "spine only"
    [ "anytime-swp"; "anytime-sqrt"; "anytime-swv"; "codegen" ]
    (Wn_compiler.Compile.pass_names
       { Wn_compiler.Compile.anytime with
         Wn_compiler.Compile.passes = Wn_compiler.Compile.no_passes });
  Alcotest.(check (list string))
    "precise builds run no anytime sub-pass"
    [ "constfold"; "strength-reduce"; "licm"; "codegen"; "addr-cse" ]
    (Wn_compiler.Compile.pass_names Wn_compiler.Compile.precise)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_dump_after () =
  let w = Suite.find Workload.Small "MatAdd" in
  let source = w.Workload.source { Workload.bits = 8; provisioned = true } in
  let compiled =
    Wn_compiler.Compile.compile_source ~dump_after:"strength-reduce" source
  in
  (match compiled.Wn_compiler.Compile.dumps with
  | [ (name, text) ] ->
      Alcotest.(check string) "dump names the pass" "strength-reduce" name;
      Alcotest.(check bool) "dump shows byte-offset indices" true
        (contains text "@")
  | l -> Alcotest.failf "expected one dump, got %d" (List.length l));
  Alcotest.check_raises "unknown pass"
    (Wn_compiler.Compile.Error
       "dump-after: unknown or disabled pass \"frobnicate\"; this build \
        runs: anytime-swp, anytime-sqrt, anytime-swv, constfold, \
        strength-reduce, licm, codegen, addr-cse")
    (fun () ->
      ignore (Wn_compiler.Compile.compile_source ~dump_after:"frobnicate" source))

(* ---------------- unit checks for the small passes ---------------- *)

let test_constfold_unit () =
  let open Wn_lang.Ast in
  let fold = Wn_compiler.Constfold.expr in
  (match fold (Binop (Mul, Binop (Add, Int 2, Int 3), Int 4)) with
  | Int 20 -> ()
  | e -> Alcotest.failf "(2+3)*4 folded to %s" (Format.asprintf "%a" pp_expr e));
  (* comparisons stay unfolded: codegen needs them at If-cond top *)
  (match fold (Binop (Lt, Int 1, Int 2)) with
  | Binop (Lt, Int 1, Int 2) -> ()
  | e -> Alcotest.failf "1<2 folded to %s" (Format.asprintf "%a" pp_expr e));
  (* Shr sign-extends like the generated ASR *)
  (match fold (Binop (Shr, Int 0x80000000, Int 4)) with
  | Int 0xF8000000 -> ()
  | e -> Alcotest.failf "asr folded to %s" (Format.asprintf "%a" pp_expr e))

let test_addr_cse_unit () =
  let open Wn_isa in
  let r5 = Reg.r 5 in
  let items imm =
    [
      Asm.I (Instr.Mov_imm (r5, imm));
      Asm.I (Instr.Mov_imm (r5, imm));
      Asm.Label "l";
      Asm.I (Instr.Mov_imm (r5, imm));
    ]
  in
  match Wn_compiler.Addr_cse.run (items 100) with
  | [ Asm.I (Instr.Mov_imm _); Asm.Label "l"; Asm.I (Instr.Mov_imm _) ] -> ()
  | l -> Alcotest.failf "unexpected addr-cse result (%d items)" (List.length l)

let test_licm_unit () =
  let open Wn_lang.Ast in
  let loop =
    For
      {
        var = "i";
        lo = Int 0;
        hi = Binop (Add, Var "n", Int 1);
        step = 1;
        body = [ Assign (Larr ("x", Var "i"), Int 0) ];
      }
  in
  match Wn_compiler.Licm.run [ Decl ("n", Int 4); loop ] with
  | [ Decl ("n", _); Decl (h, Binop (Add, Var "n", Int 1)); For l ]
    when l.hi = Var h ->
      ()
  | l ->
      Alcotest.failf "bound not hoisted: %s"
        (Format.asprintf "%a" pp_block l)

let () =
  Alcotest.run "wn.passes"
    [
      ( "differential",
        [
          Alcotest.test_case "per-pass outputs identical" `Quick
            test_differential;
          Alcotest.test_case "scripted trace" `Quick test_scripted_trace;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "errors name their pass" `Quick
            test_error_names_pass;
          Alcotest.test_case "pass names" `Quick test_pass_names;
          Alcotest.test_case "dump-after" `Quick test_dump_after;
        ] );
      ( "codegen-rmw",
        [
          Alcotest.test_case "single address per statement" `Quick
            test_rmw_single_address;
          Alcotest.test_case "indexed rmw stays tight" `Quick
            test_rmw_indexed_instruction_count;
        ] );
      ( "units",
        [
          Alcotest.test_case "constfold" `Quick test_constfold_unit;
          Alcotest.test_case "addr-cse" `Quick test_addr_cse_unit;
          Alcotest.test_case "licm" `Quick test_licm_unit;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_sr_strictly_fewer ] );
    ]
