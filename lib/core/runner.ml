open Wn_workloads

type build = {
  workload : Workload.t;
  compiled : Wn_compiler.Compile.t;
  precise : bool;
  cfg : Workload.cfg;
}

let build ?(precise = false) ?(vector_loads = false)
    ?(passes = Wn_compiler.Compile.all_passes) (w : Workload.t) cfg =
  let options =
    if precise then
      { Wn_compiler.Compile.mode = Precise; vector_loads = false; passes }
    else { Wn_compiler.Compile.mode = Anytime; vector_loads; passes }
  in
  let compiled = Wn_compiler.Compile.compile_source ~options (w.source cfg) in
  { workload = w; compiled; precise; cfg }

let machine ?machine_config b =
  let mem =
    Wn_mem.Memory.create ~size:(b.compiled.Wn_compiler.Compile.data_bytes + 64)
  in
  Wn_machine.Machine.create ?config:machine_config
    ~program:b.compiled.Wn_compiler.Compile.program ~mem ()

let load_sample b machine inputs =
  let mem = Wn_machine.Machine.mem machine in
  Workload.load_inputs b.compiled mem inputs;
  Workload.clear_output b.workload b.compiled mem;
  Wn_machine.Machine.reset_for_new_task machine

let output b machine =
  Workload.output_values b.workload b.compiled (Wn_machine.Machine.mem machine)

let nrmse_pct ~reference out = Wn_util.Stats.nrmse_pct ~reference out

let run_always_on ?halt_at_skim ?on_step machine =
  let supply = Wn_power.Supply.always_on () in
  Wn_runtime.Executor.run ?halt_at_skim ?on_step ~machine ~supply ()

let precise_reference b inputs =
  let pb = build ~precise:true b.workload b.cfg in
  let m = machine pb in
  load_sample pb m inputs;
  let outcome = run_always_on m in
  if not outcome.Wn_runtime.Executor.completed then
    failwith "precise reference did not complete";
  let out = output pb m in
  let golden = b.workload.Workload.golden inputs in
  if out <> golden then
    failwith
      (Printf.sprintf
         "precise %s output diverges from the golden model"
         b.workload.Workload.name);
  (out, outcome.Wn_runtime.Executor.active_cycles)
