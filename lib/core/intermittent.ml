open Wn_workloads
module Executor = Wn_runtime.Executor

type system = Clank | Nvp

let system_name = function Clank -> "checkpoint-volatile" | Nvp -> "nvp"

type result = {
  workload : string;
  bits : int;
  system : system;
  speedup : float;
  nrmse : float;
  skim_rate : float;
  outages_per_task : float;
  baseline_reexec : float;
  samples : int;
}

type setup = {
  n_traces : int;
  invocations : int;
  samples_per_run : int;
  trace_seed : int;
  input_seed : int;
  clank_config : Executor.clank_config;
  cycle_energy : float;
  engine : Executor.engine;
}

let default_setup =
  {
    n_traces = 3;
    invocations = 1;
    samples_per_run = 2;
    trace_seed = 2024;
    input_seed = 7;
    clank_config = Executor.default_clank;
    cycle_energy = Wn_power.Supply.default_cycle_energy;
    engine = Executor.Block;
  }

let paper_setup =
  { default_setup with n_traces = 9; invocations = 3; samples_per_run = 3 }

let name_hash s = String.fold_left (fun acc c -> (acc * 31) + Char.code c) 0 s

let policy ?(clank = Executor.default_clank) = function
  | Clank -> Executor.Clank clank
  | Nvp -> Executor.Nvp Executor.default_nvp

type task_measure = {
  wall : int;
  active : int;
  overhead : int;
  out : float array;
  skimmed : bool;
  outages : int;
  reexec_frac : float;
  energy_j : float;
  ok : bool;
}

(* Process a stream of pre-generated samples on one supply; the
   capacitor state carries over between samples, as on a real device.
   This is the per-device unit runner: the figure drivers here and the
   fleet driver (wn.fleet) both build on it. *)
let run_stream ?capacitor ?(engine = Executor.Block) ~cycle_energy build policy
    trace samples =
  let capacitor =
    match capacitor with
    | Some c -> c
    | None -> Wn_power.Capacitor.create ()
  in
  let supply = Wn_power.Supply.create ~cycle_energy ~trace ~capacitor () in
  let machine = Runner.machine build in
  List.map
    (fun inputs ->
      Runner.load_sample build machine inputs;
      let e0 = Wn_power.Supply.energy_consumed supply in
      let o = Executor.run ~policy ~engine ~machine ~supply () in
      {
        wall = o.Executor.wall_cycles;
        active = o.Executor.active_cycles;
        overhead = o.Executor.overhead_cycles;
        out = Runner.output build machine;
        skimmed = o.Executor.skimmed;
        outages = o.Executor.outage_count;
        reexec_frac =
          (if o.Executor.retired = 0 then 0.0
           else
             float_of_int o.Executor.reexecuted_instructions
             /. float_of_int o.Executor.retired);
        energy_j = Wn_power.Supply.energy_consumed supply -. e0;
        ok = o.Executor.completed;
      })
    samples

(* Per-unit partial results: one (trace, invocation) experiment unit.
   Units are pure functions of their seeds, so they can run on any
   domain; aggregation concatenates them in unit order, which is what
   makes parallel output bit-identical to sequential. *)
type unit_totals = {
  u_speedups : float list;  (* in sample order *)
  u_errors : float list;
  u_reexecs : float list;
  u_skims : int;
  u_outages : int;
  u_measured : int;
}

(* Walk the samples and the two measurement streams in lockstep — the
   three lists are index-aligned by construction, so a single pass
   replaces the former O(n²) List.nth pairing. *)
let rec fold3 f acc xs ys zs =
  match (xs, ys, zs) with
  | [], [], [] -> acc
  | x :: xs, y :: ys, z :: zs -> fold3 f (f acc x y z) xs ys zs
  | _ -> invalid_arg "Intermittent.fold3: stream length mismatch"

let run_unit ~setup ~(w : Workload.t) ~precise ~anytime ~policy
    (ti, inv, trace) =
  let rng =
    Wn_util.Rng.create
      (setup.input_seed + name_hash w.Workload.name + (7919 * inv)
     + (104729 * ti))
  in
  let samples =
    List.init setup.samples_per_run (fun _ -> w.Workload.fresh_inputs rng)
  in
  let base =
    run_stream ~engine:setup.engine ~cycle_energy:setup.cycle_energy precise
      policy trace samples
  in
  let wn =
    run_stream ~engine:setup.engine ~cycle_energy:setup.cycle_energy anytime
      policy trace samples
  in
  let acc =
    fold3
      (fun acc inputs b a ->
        if b.ok && a.ok then
          let golden = w.Workload.golden inputs in
          {
            u_speedups =
              (float_of_int b.wall /. float_of_int a.wall) :: acc.u_speedups;
            u_errors = Runner.nrmse_pct ~reference:golden a.out :: acc.u_errors;
            u_reexecs = b.reexec_frac :: acc.u_reexecs;
            u_skims = (acc.u_skims + if a.skimmed then 1 else 0);
            u_outages = acc.u_outages + a.outages;
            u_measured = acc.u_measured + 1;
          }
        else acc)
      {
        u_speedups = [];
        u_errors = [];
        u_reexecs = [];
        u_skims = 0;
        u_outages = 0;
        u_measured = 0;
      }
      samples base wn
  in
  {
    acc with
    u_speedups = List.rev acc.u_speedups;
    u_errors = List.rev acc.u_errors;
    u_reexecs = List.rev acc.u_reexecs;
  }

let run ?(jobs = 1) ?(setup = default_setup) ~system ~bits (w : Workload.t) =
  let cfg = { Workload.bits; provisioned = true } in
  let anytime = Runner.build w cfg in
  let precise = Runner.build ~precise:true w cfg in
  let policy = policy ~clank:setup.clank_config system in
  let traces =
    Wn_power.Trace.paper_suite ~count:setup.n_traces ~seed:setup.trace_seed
      ~duration_s:60.0 ()
  in
  let units =
    List.concat
      (List.mapi
         (fun ti trace ->
           List.init setup.invocations (fun inv -> (ti, inv, trace)))
         traces)
  in
  let totals =
    Wn_exec.Pool.map ~jobs
      (run_unit ~setup ~w ~precise ~anytime ~policy)
      units
  in
  let speedups = List.concat_map (fun u -> u.u_speedups) totals in
  let errors = List.concat_map (fun u -> u.u_errors) totals in
  let reexecs = List.concat_map (fun u -> u.u_reexecs) totals in
  let skims = List.fold_left (fun n u -> n + u.u_skims) 0 totals in
  let outage_total = List.fold_left (fun n u -> n + u.u_outages) 0 totals in
  let total = List.fold_left (fun n u -> n + u.u_measured) 0 totals in
  if total = 0 then failwith "Intermittent.run: no sample completed";
  {
    workload = w.Workload.name;
    bits;
    system;
    speedup = Wn_util.Stats.median (Array.of_list speedups);
    nrmse = Wn_util.Stats.median (Array.of_list errors);
    skim_rate = float_of_int skims /. float_of_int total;
    outages_per_task = float_of_int outage_total /. float_of_int total;
    baseline_reexec = Wn_util.Stats.mean (Array.of_list reexecs);
    samples = total;
  }
