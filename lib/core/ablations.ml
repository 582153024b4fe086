open Wn_workloads

(* ---------------- memoization table size ---------------- *)

type memo_point = {
  entries : int option;
  memo_speedup : float;
  hit_rate : float;
}

let memo_sweep ?(jobs = 1) ?(seed = 11) ?(sizes = [ 4; 8; 16; 32; 64 ]) scale =
  let w = Suite.find scale "Conv2d" in
  let point entries =
    let r =
      match entries with
      | None -> Earliest.earliest ~seed ~zero_skip:true ~bits:4 w
      | Some n -> Earliest.earliest ~memo_entries:n ~zero_skip:true ~seed ~bits:4 w
    in
    let lookups = r.Earliest.memo_hits + r.Earliest.memo_misses in
    {
      entries;
      memo_speedup = Earliest.speedup r;
      hit_rate =
        (if lookups = 0 then 0.0
         else float_of_int r.Earliest.memo_hits /. float_of_int lookups);
    }
  in
  Wn_exec.Pool.map ~jobs point (None :: List.map (fun n -> Some n) sizes)

(* ---------------- Clank watchdog period ---------------- *)

type watchdog_point = {
  period : int;
  wd_speedup : float;
  baseline_reexec : float;
}

(* The intermittent sweeps have few outer points but 9 × 3 experiment
   units inside each, so [jobs] fans out the units (Intermittent.run)
   rather than the sweep points. *)
let watchdog_sweep ?(jobs = 1) ?(periods = [ 1_000; 4_000; 8_000; 12_000 ])
    ?(setup = Intermittent.default_setup) scale =
  let w = Suite.find scale "Var" in
  List.map
    (fun period ->
      let setup =
        {
          setup with
          Intermittent.clank_config =
            { Wn_runtime.Executor.default_clank with watchdog_period = period };
        }
      in
      let r = Intermittent.run ~jobs ~setup ~system:Intermittent.Clank ~bits:4 w in
      {
        period;
        wd_speedup = r.Intermittent.speedup;
        baseline_reexec = r.Intermittent.baseline_reexec;
      })
    periods

(* ---------------- energy per cycle ---------------- *)

type energy_point = {
  cycle_energy : float;
  burst_cycles : int;
  energy_speedup : float;
}

let burst_cycles_of cycle_energy =
  int_of_float
    (Wn_power.Capacitor.joules
       (Wn_power.Capacitor.burst_budget (Wn_power.Capacitor.create ()))
    /. cycle_energy)

let energy_sweep ?(jobs = 1) ?(energies = [ 0.5e-9; 1.0e-9; 2.0e-9 ])
    ?(setup = Intermittent.default_setup) scale =
  let w = Suite.find scale "Var" in
  List.map
    (fun cycle_energy ->
      let burst = burst_cycles_of cycle_energy in
      (* A watchdog longer than a burst livelocks the baseline (see
         DESIGN.md); scale it with the burst as a deployed Clank
         would. *)
      let setup =
        {
          setup with
          Intermittent.cycle_energy;
          clank_config =
            { Wn_runtime.Executor.default_clank with watchdog_period = burst / 2 };
        }
      in
      let r = Intermittent.run ~jobs ~setup ~system:Intermittent.Clank ~bits:4 w in
      {
        cycle_energy;
        burst_cycles = burst;
        energy_speedup = r.Intermittent.speedup;
      })
    energies

(* ---------------- subword granularity across the suite ---------------- *)

type subword_point = {
  workload : string;
  bits : int;
  sw_speedup : float;
  sw_nrmse : float;
}

let subword_sweep ?(jobs = 1) ?(seed = 11) ?(bits_list = [ 2; 4; 8 ]) scale =
  let configs =
    List.concat_map
      (fun (w : Workload.t) ->
        let legal =
          match w.Workload.technique with
          | Workload.Swp -> bits_list
          | Workload.Swv ->
              List.filter (fun b -> b = 4 || b = 8 || b = 16) bits_list
        in
        List.map (fun bits -> (w, bits)) legal)
      (Suite.all scale)
  in
  Wn_exec.Pool.map ~jobs
    (fun ((w : Workload.t), bits) ->
      let r = Earliest.earliest ~seed ~bits w in
      {
        workload = w.Workload.name;
        bits;
        sw_speedup = Earliest.speedup r;
        sw_nrmse = r.Earliest.nrmse;
      })
    configs

(* ---------------- printers ---------------- *)

let pp_memo ppf points =
  Format.fprintf ppf "%-10s %9s %9s@." "entries" "speedup" "hit-rate";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-10s %8.2fx %8.1f%%@."
        (match p.entries with None -> "none" | Some n -> string_of_int n)
        p.memo_speedup (100.0 *. p.hit_rate))
    points

let pp_watchdog ppf points =
  Format.fprintf ppf "%-10s %12s %18s@." "period" "WN speedup" "baseline reexec";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-10d %11.2fx %17.1f%%@." p.period p.wd_speedup
        (100.0 *. p.baseline_reexec))
    points

let pp_energy ppf points =
  Format.fprintf ppf "%-12s %12s %12s@." "nJ/cycle" "burst (cyc)" "WN speedup";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-12.2f %12d %11.2fx@." (p.cycle_energy *. 1e9)
        p.burst_cycles p.energy_speedup)
    points

let pp_subword ppf points =
  Format.fprintf ppf "%-10s %6s %9s %9s@." "benchmark" "bits" "speedup" "NRMSE";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-10s %6d %8.2fx %8.2f%%@." p.workload p.bits
        p.sw_speedup p.sw_nrmse)
    points
