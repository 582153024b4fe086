open Wn_workloads

type run = {
  active_cycles : int;
  nrmse : float;
  out : float array;
  reference : float array;
  baseline_cycles : int;
  memo_hits : int;
  memo_misses : int;
}

let machine_config ~memo_entries ~zero_skip =
  { Wn_machine.Machine.memo_entries; zero_skip }

let prepare ?(seed = 11) (w : Workload.t) bits_for_cfg =
  let cfg = { Workload.bits = bits_for_cfg; provisioned = true } in
  let rng = Wn_util.Rng.create seed in
  let inputs = w.Workload.fresh_inputs rng in
  (cfg, inputs)

(* Load [inputs] into a fresh machine for [b], run it always-on (to
   its first skim point under [halt_at_skim]) and read the output and
   the memo counters. *)
let measure ~fn ~memo_entries ~zero_skip ~halt_at_skim b inputs =
  let reference, baseline_cycles = Runner.precise_reference b inputs in
  let machine =
    Runner.machine ~machine_config:(machine_config ~memo_entries ~zero_skip) b
  in
  Runner.load_sample b machine inputs;
  let outcome = Runner.run_always_on ~halt_at_skim machine in
  if not outcome.Wn_runtime.Executor.completed then
    failwith ("Earliest." ^ fn ^ ": task did not complete");
  let out = Runner.output b machine in
  let memo_hits, memo_misses =
    match Wn_machine.Machine.memo machine with
    | Some t -> (Wn_machine.Memo.hits t, Wn_machine.Memo.misses t)
    | None -> (0, 0)
  in
  {
    active_cycles = outcome.Wn_runtime.Executor.active_cycles;
    nrmse = Runner.nrmse_pct ~reference out;
    out;
    reference;
    baseline_cycles;
    memo_hits;
    memo_misses;
  }

let earliest ?memo_entries ?(zero_skip = false) ?seed ?(vector_loads = false)
    ~bits (w : Workload.t) =
  let cfg, inputs = prepare ?seed w bits in
  measure ~fn:"earliest" ~memo_entries ~zero_skip ~halt_at_skim:true
    (Runner.build ~vector_loads w cfg)
    inputs

let precise_with ?memo_entries ?(zero_skip = false) ?seed (w : Workload.t) =
  let cfg, inputs = prepare ?seed w 8 in
  measure ~fn:"precise_with" ~memo_entries ~zero_skip ~halt_at_skim:false
    (Runner.build ~precise:true w cfg)
    inputs

let speedup r = float_of_int r.baseline_cycles /. float_of_int r.active_cycles
