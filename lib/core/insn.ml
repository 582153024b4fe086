open Wn_workloads

type row = {
  bench : string;
  bits : int;
  precise_retired : int;
  anytime_retired : int;
  anytime_retired_noopt : int;
  wn_pct : float;
  reduction_pct : float;
}

type report = {
  scale : Workload.scale;
  seed : int;
  rows : row list;
  scenarios : (string * int) list;
}

(* One completed always-on task; the retired-instruction count is a
   pure function of the compiled program and the inputs. *)
let retired_of build inputs =
  let machine = Runner.machine build in
  Runner.load_sample build machine inputs;
  let o = Runner.run_always_on machine in
  if not o.Wn_runtime.Executor.completed then
    failwith ("Insn: " ^ build.Runner.workload.Workload.name
              ^ " did not complete under continuous power");
  (o.Wn_runtime.Executor.retired, Wn_machine.Machine.wn_instructions machine)

let row ~seed ~bits (w : Workload.t) =
  let cfg = { Workload.bits; provisioned = true } in
  let rng = Wn_util.Rng.create seed in
  let inputs = w.Workload.fresh_inputs rng in
  let anytime = Runner.build w cfg in
  let noopt =
    Runner.build ~passes:Wn_compiler.Compile.no_passes w cfg
  in
  let precise = Runner.build ~precise:true w cfg in
  let anytime_retired, wn = retired_of anytime inputs in
  let anytime_retired_noopt, _ = retired_of noopt inputs in
  let precise_retired, _ = retired_of precise inputs in
  {
    bench = w.Workload.name;
    bits;
    precise_retired;
    anytime_retired;
    anytime_retired_noopt;
    wn_pct = 100.0 *. float_of_int wn /. float_of_int anytime_retired;
    reduction_pct =
      100.0
      *. float_of_int (anytime_retired_noopt - anytime_retired)
      /. float_of_int anytime_retired_noopt;
  }

(* The pinned scenario counter: the Var workload under the Clank
   runtime on an always-on supply — the same run the
   fig10:executor_clank_shadowmap microbenchmark times, counted in
   retired instructions instead of nanoseconds so the count is
   deterministic across machines. *)
let shadowmap_key = "fig10:executor_clank_shadowmap"

let shadowmap_retired ~seed scale =
  let w = Suite.find scale "Var" in
  let cfg = { Workload.bits = 8; provisioned = true } in
  let rng = Wn_util.Rng.create seed in
  let inputs = w.Workload.fresh_inputs rng in
  let build = Runner.build w cfg in
  let machine = Runner.machine build in
  Runner.load_sample build machine inputs;
  let o =
    Wn_runtime.Executor.run
      ~policy:(Wn_runtime.Executor.Clank Wn_runtime.Executor.default_clank)
      ~machine
      ~supply:(Wn_power.Supply.always_on ())
      ()
  in
  if not o.Wn_runtime.Executor.completed then
    failwith "Insn: shadowmap scenario did not complete";
  o.Wn_runtime.Executor.retired

let measure ?(seed = 7) ?(bits = 8) ?(scale = Workload.Small) benches =
  let rows = List.map (row ~seed ~bits) benches in
  let scenarios = [ (shadowmap_key, shadowmap_retired ~seed scale) ] in
  { scale; seed; rows; scenarios }

let pp ppf r =
  Format.fprintf ppf
    "%-10s %12s %12s %12s %8s %8s@." "Benchmark" "precise" "anytime"
    "anytime-O0" "Insn %" "saved";
  List.iter
    (fun row ->
      Format.fprintf ppf "%-10s %12d %12d %12d %7.2f%% %7.2f%%@." row.bench
        row.precise_retired row.anytime_retired row.anytime_retired_noopt
        row.wn_pct row.reduction_pct)
    r.rows;
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%s: %d retired@." k v)
    r.scenarios

(* Flat machine-readable form: one counter per line, mirroring the
   BENCH_machine.json shape; a runtest rule in test/dune compares its
   [results] against the [insn] section of BASELINE_work.json. *)
let json r =
  let counters =
    List.concat_map
      (fun row ->
        [
          (Printf.sprintf "insn:%s[build=precise]" row.bench,
           row.precise_retired);
          (Printf.sprintf "insn:%s[build=anytime]" row.bench,
           row.anytime_retired);
          (Printf.sprintf "insn:%s[build=anytime-O0]" row.bench,
           row.anytime_retired_noopt);
        ])
      r.rows
    @ r.scenarios
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"schema\": \"wn-insn/1\",\n";
  Buffer.add_string buf "  \"unit\": \"retired instructions\",\n";
  Buffer.add_string buf "  \"results\": {";
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string buf (if i = 0 then "\n" else ",\n");
      Buffer.add_string buf (Printf.sprintf "    %S: %d" k v))
    counters;
  Buffer.add_string buf "\n  }\n}\n";
  Buffer.contents buf
