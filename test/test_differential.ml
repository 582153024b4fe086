(* Differential testing: random WNC programs are executed three ways —
   by the reference interpreter, by the compiled precise build on the
   cycle-accurate core under continuous power, and by the same binary
   under intermittent power on both system models.  All four answers
   must agree bit for bit: the compiler against the language semantics,
   and the intermittency runtimes against the compiler.  Under Clank
   outages the block engine must also agree with the ISA spec, outcome
   record included. *)

open Wn_compiler

let globals_of (spec : Gen_wnc.spec) = spec.Gen_wnc.program.Wn_lang.Ast.globals

(* Run a compiled program; returns the outcome and each global's final
   contents. *)
let machine_run ?policy ?supply ?engine compiled (spec : Gen_wnc.spec) =
  let mem = Wn_mem.Memory.create ~size:(compiled.Compile.data_bytes + 64) in
  List.iter
    (fun (name, values) ->
      let sym = Compile.symbol compiled name in
      Wn_mem.Memory.blit_in mem ~addr:sym.Compile.sym_addr
        (Layout.encode sym.Compile.sym_layout values))
    spec.Gen_wnc.inputs;
  let machine =
    Wn_machine.Machine.create ~program:compiled.Compile.program ~mem ()
  in
  let supply =
    match supply with Some s -> s () | None -> Wn_power.Supply.always_on ()
  in
  let outcome = Wn_runtime.Executor.run ?policy ?engine ~machine ~supply () in
  if not outcome.Wn_runtime.Executor.completed then failwith "did not complete";
  ( outcome,
    List.map
      (fun (g : Wn_lang.Ast.global) ->
        let sym = Compile.symbol compiled g.Wn_lang.Ast.g_name in
        ( g.Wn_lang.Ast.g_name,
          Layout.decode sym.Compile.sym_layout ~count:g.Wn_lang.Ast.g_count
            (Wn_mem.Memory.region mem ~addr:sym.Compile.sym_addr
               ~len:
                 (Layout.storage_bytes sym.Compile.sym_layout
                    ~count:g.Wn_lang.Ast.g_count)) ))
      (globals_of spec) )

let machine_results ?policy ?supply compiled spec =
  snd (machine_run ?policy ?supply compiled spec)

let interp_results (spec : Gen_wnc.spec) =
  Wn_lang.Interp.interpret spec.Gen_wnc.program ~inputs:spec.Gen_wnc.inputs

let compile_spec (spec : Gen_wnc.spec) =
  Compile.compile ~options:Compile.precise spec.Gen_wnc.program

let bursty () =
  Wn_power.Supply.create
    ~trace:(Wn_power.Trace.square ~on_ms:1 ~off_ms:5 ~power:2e-3 ~duration_s:20.0)
    ~capacitor:(Wn_power.Capacitor.create ~capacitance:2e-6 ()) ()

let show_mismatch a b =
  List.iter2
    (fun (n1, x) (n2, y) ->
      assert (n1 = n2);
      if x <> y then
        Array.iteri
          (fun i v ->
            if v <> y.(i) then
              Printf.eprintf "  %s[%d]: %d vs %d\n" n1 i v y.(i))
          x)
    a b

let prop_compiler_matches_interpreter =
  QCheck.Test.make ~count:400 ~name:"compiled precise build == interpreter"
    Gen_wnc.arbitrary (fun spec ->
      let expected = interp_results spec in
      let got = machine_results (compile_spec spec) spec in
      if got <> expected then begin
        show_mismatch got expected;
        false
      end
      else true)

let prop_parser_roundtrip =
  QCheck.Test.make ~count:400 ~name:"printed program re-parses to itself"
    Gen_wnc.arbitrary (fun spec ->
      let reparsed = Wn_lang.Parser.parse spec.Gen_wnc.source in
      reparsed.Wn_lang.Ast.body = spec.Gen_wnc.program.Wn_lang.Ast.body)

let prop_nvp_equals_always_on =
  QCheck.Test.make ~count:150 ~name:"NVP under outages == always-on"
    Gen_wnc.arbitrary (fun spec ->
      let compiled = compile_spec spec in
      let reference = machine_results compiled spec in
      let nvp =
        machine_results
          ~policy:(Wn_runtime.Executor.Nvp Wn_runtime.Executor.default_nvp)
          ~supply:bursty compiled spec
      in
      nvp = reference)

let prop_clank_equals_always_on =
  QCheck.Test.make ~count:150 ~name:"Clank under outages == always-on"
    Gen_wnc.arbitrary (fun spec ->
      let compiled = compile_spec spec in
      let reference = machine_results compiled spec in
      let clank =
        machine_results
          ~policy:
            (Wn_runtime.Executor.Clank
               { Wn_runtime.Executor.default_clank with watchdog_period = 800 })
          ~supply:bursty compiled spec
      in
      clank = reference)

let prop_clank_block_equals_reference =
  QCheck.Test.make ~count:100 ~name:"Clank under outages: block == reference"
    Gen_wnc.arbitrary (fun spec ->
      let compiled = compile_spec spec in
      let run engine =
        machine_run ~engine
          ~policy:
            (Wn_runtime.Executor.Clank
               { Wn_runtime.Executor.default_clank with watchdog_period = 800 })
          ~supply:bursty compiled spec
      in
      run Wn_runtime.Executor.Block = run Wn_runtime.Executor.Reference)

let () =
  Alcotest.run "wn.differential"
    [
      ( "random programs",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_parser_roundtrip;
            prop_compiler_matches_interpreter;
            prop_nvp_equals_always_on;
            prop_clank_equals_always_on;
            prop_clank_block_equals_reference;
          ] );
    ]
