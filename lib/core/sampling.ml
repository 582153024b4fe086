open Wn_workloads

type var_row = {
  dataset : int;
  exact : float;
  anytime : float;
  sampled : float option;
}

type var_result = {
  rows : var_row list;
  anytime_mean_err_pct : float;
  cost_ratio : float;
  keep_every : int;
}

(* Measured cycle ratio between the precise task and the anytime task's
   earliest output, on representative inputs. *)
let measured_cost_ratio ~seed ~bits w =
  let r = Earliest.earliest ~seed ~bits w in
  float_of_int r.Earliest.baseline_cycles /. float_of_int r.Earliest.active_cycles

let var_study ?(datasets = 24) ?(seed = 5) ?(bits = 4) scale =
  let w = Suite.find scale "Var" in
  let cost_ratio = measured_cost_ratio ~seed ~bits w in
  let keep_every = max 1 (int_of_float (Float.ceil (cost_ratio -. 0.01))) in
  let cfg = { Workload.bits; provisioned = true } in
  let anytime = Runner.build w cfg in
  let machine = Runner.machine anytime in
  let rng = Wn_util.Rng.create (seed + 1) in
  let errs = ref [] in
  let rows =
    List.init datasets (fun d ->
        let inputs = w.Workload.fresh_inputs rng in
        (* One scalar per data set, as in Figure 17: the mean of the
           window variances. *)
        let exact = Wn_util.Stats.mean (w.Workload.golden inputs) in
        Runner.load_sample anytime machine inputs;
        let o = Runner.run_always_on ~halt_at_skim:true machine in
        if not o.Wn_runtime.Executor.completed then
          failwith "Sampling.var_study: task did not complete";
        let wn = Wn_util.Stats.mean (Runner.output anytime machine) in
        if exact > 0.0 then
          errs := (abs_float (wn -. exact) /. exact *. 100.0) :: !errs;
        {
          dataset = d;
          exact;
          anytime = wn;
          sampled = (if d mod keep_every = 0 then Some exact else None);
        })
  in
  {
    rows;
    anytime_mean_err_pct = Wn_util.Stats.mean (Array.of_list !errs);
    cost_ratio;
    keep_every;
  }

type glucose_row = {
  minutes : int;
  clock : string;
  clinical : float;
  sampled : float option;
  anytime : float;
}

type glucose_result = {
  readings : glucose_row list;
  total_dips : int;
  sampled_detected : int;
  anytime_detected : int;
  anytime_mean_err_pct : float;
  cost_ratio : float;
}

let glucose_study ?(seed = 5) ?(bits = 4) scale =
  (* The per-reading processing budget comes from the Var kernel — the
     same reduction shape a glucose monitor's feature extraction has. *)
  let cost_ratio = measured_cost_ratio ~seed ~bits (Suite.find scale "Var") in
  let keep_every = max 1 (int_of_float (Float.ceil (cost_ratio -. 0.01))) in
  let rng = Wn_util.Rng.create seed in
  let series = Glucose.clinical rng in
  let readings =
    Array.to_list series
    |> List.mapi (fun i (r : Glucose.reading) ->
           {
             minutes = r.Glucose.minutes;
             clock = Glucose.clock_of_minutes r.Glucose.minutes;
             clinical = r.Glucose.mgdl;
             sampled =
               (if i mod keep_every = 0 then Some r.Glucose.mgdl else None);
             anytime = Glucose.quantize_msb ~bits r.Glucose.mgdl;
           })
  in
  let dips = Glucose.critical_indices series in
  let detected value_of =
    List.length
      (List.filter
         (fun i ->
           match value_of (List.nth readings i) with
           | Some v -> v < Glucose.critical_threshold
           | None -> false)
         dips)
  in
  let errs =
    List.filter_map
      (fun r ->
        if r.clinical > 0.0 then
          Some (abs_float (r.anytime -. r.clinical) /. r.clinical *. 100.0)
        else None)
      readings
  in
  {
    readings;
    total_dips = List.length dips;
    sampled_detected = detected (fun r -> r.sampled);
    anytime_detected = detected (fun r -> Some r.anytime);
    anytime_mean_err_pct = Wn_util.Stats.mean (Array.of_list errs);
    cost_ratio;
  }
