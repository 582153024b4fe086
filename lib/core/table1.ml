open Wn_workloads

type row = {
  name : string;
  area : string;
  description : string;
  technique : Workload.technique;
  insn_pct : float;
  runtime_ms : float;
  code_bytes_precise : int;
  code_bytes_anytime : int;
}

let row ?(seed = 3) ?(bits = 8) (w : Workload.t) =
  let cfg = { Workload.bits; provisioned = true } in
  let rng = Wn_util.Rng.create seed in
  let inputs = w.Workload.fresh_inputs rng in
  let anytime = Runner.build w cfg in
  let _, baseline_cycles = Runner.precise_reference anytime inputs in
  let machine = Runner.machine anytime in
  Runner.load_sample anytime machine inputs;
  let o = Runner.run_always_on machine in
  if not o.Wn_runtime.Executor.completed then
    failwith "Table1: anytime build did not complete";
  let wn = Wn_machine.Machine.wn_instructions machine in
  let total = Wn_machine.Machine.instructions_retired machine in
  let precise = Runner.build ~precise:true w cfg in
  {
    name = w.Workload.name;
    area = w.Workload.area;
    description = w.Workload.description;
    technique = w.Workload.technique;
    insn_pct = 100.0 *. float_of_int wn /. float_of_int total;
    runtime_ms =
      float_of_int baseline_cycles /. Wn_power.Supply.default_clock_hz *. 1000.0;
    code_bytes_precise =
      Wn_compiler.Compile.code_size_bytes precise.Runner.compiled;
    code_bytes_anytime =
      Wn_compiler.Compile.code_size_bytes anytime.Runner.compiled;
  }

let rows ?seed ?bits scale = List.map (row ?seed ?bits) (Suite.all scale)

let pp ppf rows =
  Format.fprintf ppf "%-10s %-22s %-6s %8s %10s %8s %8s@." "Benchmark" "Area"
    "WN" "Insn %" "Runtime" "code(P)" "code(WN)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %-22s %-6s %7.2f%% %8.2fms %7dB %7dB@." r.name
        r.area
        (match r.technique with Workload.Swp -> "SWP" | Workload.Swv -> "SWV")
        r.insn_pct r.runtime_ms r.code_bytes_precise r.code_bytes_anytime)
    rows
