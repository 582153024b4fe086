open Wn_workloads

type point = { runtime : float; nrmse : float }

type curve = {
  workload : string;
  bits : int;
  provisioned : bool;
  vector_loads : bool;
  baseline_cycles : int;
  anytime_cycles : int;
  final_nrmse : float;
  points : point list;
}

let runtime_quality ?(points = 48) ?(vector_loads = false) ?(provisioned = true)
    ~seed ~bits (w : Workload.t) =
  let cfg = { Workload.bits; provisioned } in
  let rng = Wn_util.Rng.create seed in
  let inputs = w.Workload.fresh_inputs rng in
  let anytime = Runner.build ~vector_loads w cfg in
  let reference, baseline_cycles = Runner.precise_reference anytime inputs in
  let machine = Runner.machine anytime in
  Runner.load_sample anytime machine inputs;
  let collected = ref [] in
  let sample active_cycles =
    let out = Runner.output anytime machine in
    let err = Runner.nrmse_pct ~reference out in
    collected :=
      { runtime = float_of_int active_cycles /. float_of_int baseline_cycles;
        nrmse = err }
      :: !collected
  in
  (* Sample density relative to the *anytime* build's expected length
     (roughly 2–3× baseline); probe a little finer than requested.  One
     sample at the first instruction boundary past each multiple of the
     period, plus the final point.  Always-on runs spend no overhead, so
     the active count is the retired instructions' latency sum. *)
  let period = max 200 (baseline_cycles * 3 / points) in
  let active = ref 0 and next = ref period in
  let on_step _ =
    active := !active + Wn_machine.Machine.last_cycles machine;
    if !active >= !next then begin
      sample !active;
      next := !next + period
    end
  in
  let outcome = Runner.run_always_on ~on_step machine in
  if not outcome.Wn_runtime.Executor.completed then
    failwith "Curves.runtime_quality: anytime build did not complete";
  sample outcome.Wn_runtime.Executor.active_cycles;
  let final_out = Runner.output anytime machine in
  {
    workload = w.Workload.name;
    bits;
    provisioned;
    vector_loads;
    baseline_cycles;
    anytime_cycles = outcome.Wn_runtime.Executor.active_cycles;
    final_nrmse = Runner.nrmse_pct ~reference final_out;
    points = List.rev !collected;
  }

(* Every curve is a pure function of (workload, config, seed): the
   build, machine and inputs are constructed inside [runtime_quality],
   so per-config jobs can run on any domain and the result list keeps
   the config order. *)
let suite ?(jobs = 1) ?points ?vector_loads ?provisioned ~seed ~bits_list
    workloads =
  let configs =
    List.concat_map
      (fun (w : Workload.t) -> List.map (fun bits -> (w, bits)) bits_list)
      workloads
  in
  Wn_exec.Pool.map ~jobs
    (fun (w, bits) ->
      runtime_quality ?points ?vector_loads ?provisioned ~seed ~bits w)
    configs

let pp ppf c =
  Format.fprintf ppf "# %s, %d-bit%s%s: baseline %d cycles, anytime %d cycles@."
    c.workload c.bits
    (if c.provisioned then ", provisioned" else "")
    (if c.vector_loads then ", vectorized loads" else "")
    c.baseline_cycles c.anytime_cycles;
  Format.fprintf ppf "# runtime(norm), nrmse(%%)@.";
  List.iter
    (fun p -> Format.fprintf ppf "%.4f, %.6f@." p.runtime p.nrmse)
    c.points
