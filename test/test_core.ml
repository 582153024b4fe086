(* Tests for wn.core (the evaluation drivers) and wn.area (the Section
   V-D analytical model). *)

open Wn_workloads

let scale = Workload.Small

(* ---------------- Curves (Figure 9 machinery) ---------------- *)

let test_curve_matadd () =
  let w = Suite.find scale "MatAdd" in
  let c = Wn_core.Curves.runtime_quality ~seed:1 ~bits:8 w in
  Alcotest.(check string) "workload" "MatAdd" c.Wn_core.Curves.workload;
  if List.length c.Wn_core.Curves.points < 10 then
    Alcotest.fail "too few curve points";
  (* Provisioned SWV reaches the precise result. *)
  Alcotest.(check (float 1e-9)) "final error zero" 0.0 c.Wn_core.Curves.final_nrmse;
  (* Anytime takes roughly 2x the baseline (4 planes at ~1/2 cost). *)
  let ratio =
    float_of_int c.Wn_core.Curves.anytime_cycles
    /. float_of_int c.Wn_core.Curves.baseline_cycles
  in
  if ratio < 1.5 || ratio > 3.0 then Alcotest.failf "odd anytime ratio %.2f" ratio;
  (* Error at the last point is no larger than at the first. *)
  let pts = c.Wn_core.Curves.points in
  let first = (List.hd pts).Wn_core.Curves.nrmse in
  let last = (List.nth pts (List.length pts - 1)).Wn_core.Curves.nrmse in
  if last > first then Alcotest.fail "error grew over the run";
  (* Sampling cadence: one point at the first instruction boundary past
     each multiple of the period (the default 48 points spread over
     three baselines, at least 200 cycles apart), plus the final
     point. *)
  let baseline = c.Wn_core.Curves.baseline_cycles in
  let period = max 200 (baseline * 3 / 48) in
  let actives =
    List.map
      (fun p ->
        int_of_float (Float.round (p.Wn_core.Curves.runtime *. float_of_int baseline)))
      pts
  in
  Alcotest.(check int) "one point per period crossed, plus the final"
    ((c.Wn_core.Curves.anytime_cycles / period) + 1)
    (List.length actives);
  List.iteri
    (fun i a ->
      let mark = (i + 1) * period in
      if i < List.length actives - 1 && (a < mark || a >= mark + period) then
        Alcotest.failf "point %d at %d active cycles, period mark %d" i a mark)
    actives;
  Alcotest.(check int) "final point at the end of the run"
    c.Wn_core.Curves.anytime_cycles
    (List.nth actives (List.length actives - 1))

let test_curve_provisioning_study () =
  (* Figure 14: unprovisioned addition plateaus above zero error while
     provisioned converges. *)
  let w = Suite.find scale "MatAdd" in
  let prov = Wn_core.Curves.runtime_quality ~seed:2 ~bits:8 ~provisioned:true w in
  let unprov =
    Wn_core.Curves.runtime_quality ~seed:2 ~bits:8 ~provisioned:false w
  in
  Alcotest.(check (float 1e-9)) "provisioned exact" 0.0
    prov.Wn_core.Curves.final_nrmse;
  if unprov.Wn_core.Curves.final_nrmse <= 0.0 then
    Alcotest.fail "unprovisioned should not reach the precise result"

let test_curve_vector_loads_study () =
  (* Figure 12: vectorizing the subword loads brings the final (and so
     every) output earlier, at equal quality. *)
  let w = Suite.find scale "MatMul" in
  let plain = Wn_core.Curves.runtime_quality ~seed:3 ~bits:8 w in
  let vec = Wn_core.Curves.runtime_quality ~vector_loads:true ~seed:3 ~bits:8 w in
  if vec.Wn_core.Curves.anytime_cycles >= plain.Wn_core.Curves.anytime_cycles then
    Alcotest.fail "vectorized loads were not faster";
  Alcotest.(check (float 1e-9)) "still exact" 0.0 vec.Wn_core.Curves.final_nrmse

(* ---------------- Earliest (Figures 13/15 machinery) -------------- *)

let test_earliest_monotone_bits () =
  let w = Suite.find scale "Conv2d" in
  let runs = List.map (fun bits -> (bits, Wn_core.Earliest.earliest ~bits w)) [ 1; 2; 4; 8 ] in
  (* Smaller subwords: earlier (bigger speedup) but rougher. *)
  let rec pairwise = function
    | (b1, r1) :: ((b2, r2) :: _ as rest) ->
        if Wn_core.Earliest.speedup r1 <= Wn_core.Earliest.speedup r2 then
          Alcotest.failf "%d-bit not faster than %d-bit" b1 b2;
        if r1.Wn_core.Earliest.nrmse < r2.Wn_core.Earliest.nrmse then
          Alcotest.failf "%d-bit more accurate than %d-bit" b1 b2;
        pairwise rest
    | _ -> ()
  in
  pairwise runs;
  List.iter
    (fun (bits, r) ->
      if Wn_core.Earliest.speedup r <= 1.0 then
        Alcotest.failf "%d-bit earliest output not faster than baseline" bits)
    runs

let test_memoization_study () =
  (* Figure 13: memoization + zero skipping improve all three builds,
     most for the smallest subwords. *)
  let w = Suite.find scale "Conv2d" in
  let base4 = Wn_core.Earliest.earliest ~bits:4 w in
  let memo4 = Wn_core.Earliest.earliest ~memo_entries:16 ~zero_skip:true ~bits:4 w in
  let base8 = Wn_core.Earliest.earliest ~bits:8 w in
  let memo8 = Wn_core.Earliest.earliest ~memo_entries:16 ~zero_skip:true ~bits:8 w in
  let precisem = Wn_core.Earliest.precise_with ~memo_entries:16 ~zero_skip:true w in
  let s = Wn_core.Earliest.speedup in
  if s memo4 <= s base4 then Alcotest.fail "memoization did not help 4-bit";
  if s memo8 <= s base8 then Alcotest.fail "memoization did not help 8-bit";
  if s precisem <= 1.0 then Alcotest.fail "memoization did not help precise";
  let gain4 = s memo4 /. s base4 and gain8 = s memo8 /. s base8 in
  if gain4 < gain8 then
    Alcotest.fail "smaller subwords should gain more from memoization";
  (* Quality is untouched by memoization (it is a latency shortcut). *)
  Alcotest.(check (float 1e-6)) "same output quality" base4.Wn_core.Earliest.nrmse
    memo4.Wn_core.Earliest.nrmse

(* ---------------- Intermittent (Figures 10/11 machinery) ---------- *)

let test_intermittent_var () =
  let w = Suite.find scale "Var" in
  let setup =
    { Wn_core.Intermittent.default_setup with n_traces = 2; samples_per_run = 2 }
  in
  let clank = Wn_core.Intermittent.run ~setup ~system:Wn_core.Intermittent.Clank ~bits:4 w in
  let nvp = Wn_core.Intermittent.run ~setup ~system:Wn_core.Intermittent.Nvp ~bits:4 w in
  if clank.Wn_core.Intermittent.speedup <= 1.0 then
    Alcotest.failf "no WN speedup on Clank (%.2f)" clank.Wn_core.Intermittent.speedup;
  if nvp.Wn_core.Intermittent.speedup <= 1.0 then
    Alcotest.failf "no WN speedup on NVP (%.2f)" nvp.Wn_core.Intermittent.speedup;
  (* The paper's headline relationship — bigger wins on the
     checkpointing volatile system than on NVP — holds in aggregate;
     this tiny 2-trace setup allows for per-workload noise. *)
  if clank.Wn_core.Intermittent.speedup < nvp.Wn_core.Intermittent.speedup *. 0.75
  then
    Alcotest.failf "Clank speedup (%.2f) far below NVP (%.2f)"
      clank.Wn_core.Intermittent.speedup nvp.Wn_core.Intermittent.speedup;
  if clank.Wn_core.Intermittent.skim_rate <= 0.5 then
    Alcotest.fail "most intermittent tasks should finish via skim";
  if clank.Wn_core.Intermittent.outages_per_task <= 0.0 then
    Alcotest.fail "tasks saw no outages";
  if clank.Wn_core.Intermittent.nrmse <= 0.0 then
    Alcotest.fail "committed outputs should be approximate (nonzero error)"

let test_intermittent_sample_accounting () =
  (* Pairing: every (trace, invocation, sample) index must be measured
     exactly once — the single-pass lockstep walk that replaced the
     O(n²) List.nth pairing has to account for all of them. *)
  let w = Suite.find scale "Var" in
  let setup =
    {
      Wn_core.Intermittent.default_setup with
      n_traces = 2;
      invocations = 2;
      samples_per_run = 3;
    }
  in
  let r =
    Wn_core.Intermittent.run ~setup ~system:Wn_core.Intermittent.Clank ~bits:4 w
  in
  Alcotest.(check int) "2 traces x 2 invocations x 3 samples" 12
    r.Wn_core.Intermittent.samples

(* ---------------- Sampling (Figures 3/17 machinery) --------------- *)

let test_glucose_study () =
  let g = Wn_core.Sampling.glucose_study scale in
  Alcotest.(check int) "two dips" 2 g.Wn_core.Sampling.total_dips;
  Alcotest.(check int) "anytime catches both" 2 g.Wn_core.Sampling.anytime_detected;
  if g.Wn_core.Sampling.sampled_detected >= g.Wn_core.Sampling.anytime_detected then
    Alcotest.fail "sampling should miss events anytime catches";
  (* Mean error within the paper's ballpark (they report 7.5%, ISO
     allows 20%). *)
  if g.Wn_core.Sampling.anytime_mean_err_pct > 20.0 then
    Alcotest.failf "anytime glucose error too high: %.1f%%"
      g.Wn_core.Sampling.anytime_mean_err_pct;
  if g.Wn_core.Sampling.cost_ratio <= 1.0 then
    Alcotest.fail "precise must cost more than the anytime first pass"

let test_var_sampling_study () =
  let v = Wn_core.Sampling.var_study ~datasets:8 scale in
  Alcotest.(check int) "8 rows" 8 (List.length v.Wn_core.Sampling.rows);
  List.iteri
    (fun i (row : Wn_core.Sampling.var_row) ->
      Alcotest.(check int) "dataset ids" i row.Wn_core.Sampling.dataset;
      if row.Wn_core.Sampling.anytime <= 0.0 then
        Alcotest.fail "anytime variance must be positive";
      match (i mod v.Wn_core.Sampling.keep_every, row.Wn_core.Sampling.sampled) with
      | 0, None -> Alcotest.fail "budgeted dataset not sampled"
      | r, Some _ when r <> 0 -> Alcotest.fail "unbudgeted dataset sampled"
      | _ -> ())
    v.Wn_core.Sampling.rows;
  if v.Wn_core.Sampling.keep_every < 2 then
    Alcotest.fail "precise sampling should not keep up with every data set"

(* ---------------- Ablations ---------------- *)

let test_ablation_memo () =
  let points = Wn_core.Ablations.memo_sweep ~sizes:[ 4; 64 ] scale in
  match points with
  | [ none; small; big ] ->
      if none.Wn_core.Ablations.hit_rate <> 0.0 then
        Alcotest.fail "no-table run reported hits";
      if big.Wn_core.Ablations.hit_rate <= small.Wn_core.Ablations.hit_rate then
        Alcotest.fail "bigger table should hit more";
      if big.Wn_core.Ablations.memo_speedup <= none.Wn_core.Ablations.memo_speedup
      then Alcotest.fail "memoization should speed up the earliest output"
  | _ -> Alcotest.fail "expected three sweep points"

let test_ablation_watchdog () =
  let setup =
    { Wn_core.Intermittent.default_setup with n_traces = 2; samples_per_run = 1 }
  in
  let points =
    Wn_core.Ablations.watchdog_sweep ~periods:[ 1_000; 12_000 ] ~setup scale
  in
  match points with
  | [ short; long ] ->
      if
        long.Wn_core.Ablations.baseline_reexec
        <= short.Wn_core.Ablations.baseline_reexec
      then
        Alcotest.fail
          "longer watchdog periods must cost the baseline more re-execution"
  | _ -> Alcotest.fail "expected two sweep points"

let test_ablation_energy () =
  let setup =
    { Wn_core.Intermittent.default_setup with n_traces = 2; samples_per_run = 1 }
  in
  let points =
    Wn_core.Ablations.energy_sweep ~energies:[ 0.5e-9; 2.0e-9 ] ~setup scale
  in
  List.iter
    (fun p ->
      if p.Wn_core.Ablations.energy_speedup <= 0.9 then
        Alcotest.fail "implausible speedup in energy sweep";
      if p.Wn_core.Ablations.burst_cycles <= 0 then
        Alcotest.fail "burst length must be positive")
    points;
  match points with
  | [ a; b ] ->
      if b.Wn_core.Ablations.burst_cycles >= a.Wn_core.Ablations.burst_cycles then
        Alcotest.fail "more energy per cycle must shorten the burst"
  | _ -> Alcotest.fail "expected two sweep points"

let test_ablation_subword () =
  let points = Wn_core.Ablations.subword_sweep ~bits_list:[ 4; 8 ] scale in
  (* For every benchmark: 4-bit is faster to first output than 8-bit. *)
  List.iter
    (fun name ->
      let find bits =
        List.find
          (fun p ->
            p.Wn_core.Ablations.workload = name && p.Wn_core.Ablations.bits = bits)
          points
      in
      let p4 = find 4 and p8 = find 8 in
      if p4.Wn_core.Ablations.sw_speedup <= p8.Wn_core.Ablations.sw_speedup then
        Alcotest.failf "%s: 4-bit not faster than 8-bit" name)
    Wn_workloads.Suite.names

(* ---------------- Table 1 ---------------- *)

let test_table1_rows () =
  let rows = Wn_core.Table1.rows scale in
  Alcotest.(check int) "six rows" 6 (List.length rows);
  List.iter
    (fun (r : Wn_core.Table1.row) ->
      if r.Wn_core.Table1.insn_pct <= 0.0 || r.Wn_core.Table1.insn_pct > 50.0 then
        Alcotest.failf "%s: implausible WN instruction share %.1f%%"
          r.Wn_core.Table1.name r.Wn_core.Table1.insn_pct;
      if r.Wn_core.Table1.runtime_ms <= 0.0 then
        Alcotest.failf "%s: no runtime" r.Wn_core.Table1.name;
      if r.Wn_core.Table1.code_bytes_anytime <= r.Wn_core.Table1.code_bytes_precise
      then
        Alcotest.failf "%s: anytime code not larger" r.Wn_core.Table1.name)
    rows

(* ---------------- Area model (Section V-D) ---------------- *)

let test_area_adder () =
  let r = Wn_area.Area_model.adder () in
  Alcotest.(check int) "seven muxes (Figure 8)" 7 r.Wn_area.Area_model.mux_count;
  (* The paper's numbers: ~0.02% area, ~4% adder power, Fmax ~1.12 GHz,
     orders of magnitude above the 24 MHz operating point. *)
  if r.Wn_area.Area_model.area_overhead_pct > 0.1 then
    Alcotest.failf "area overhead %.3f%% too high" r.Wn_area.Area_model.area_overhead_pct;
  if
    r.Wn_area.Area_model.adder_power_overhead_pct < 2.0
    || r.Wn_area.Area_model.adder_power_overhead_pct > 8.0
  then
    Alcotest.failf "adder power overhead %.1f%% off"
      r.Wn_area.Area_model.adder_power_overhead_pct;
  if r.Wn_area.Area_model.fmax_ghz < 0.9 || r.Wn_area.Area_model.fmax_ghz > 1.4 then
    Alcotest.failf "Fmax %.2f GHz off" r.Wn_area.Area_model.fmax_ghz;
  if r.Wn_area.Area_model.fmax_ghz *. 1000.0 < 10.0 *. r.Wn_area.Area_model.operating_mhz
  then Alcotest.fail "Fmax should dwarf the operating point"

let test_area_memo () =
  let r = Wn_area.Area_model.memo_table () in
  Alcotest.(check int) "paper's 28 tag bits" 28 r.Wn_area.Area_model.tag_bits;
  Alcotest.(check int) "16 entries" 16 r.Wn_area.Area_model.entries;
  (* The paper reports the table at 40.5% of a 16x16 multiplier. *)
  if r.Wn_area.Area_model.ratio_pct < 25.0 || r.Wn_area.Area_model.ratio_pct > 55.0
  then Alcotest.failf "memo/multiplier ratio %.1f%% off" r.Wn_area.Area_model.ratio_pct

let () =
  Alcotest.run "wn.core"
    [
      ( "curves",
        [
          Alcotest.test_case "matadd" `Quick test_curve_matadd;
          Alcotest.test_case "provisioning (fig 14)" `Quick test_curve_provisioning_study;
          Alcotest.test_case "vector loads (fig 12)" `Quick test_curve_vector_loads_study;
        ] );
      ( "earliest",
        [
          Alcotest.test_case "subword monotonicity (fig 15)" `Quick
            test_earliest_monotone_bits;
          Alcotest.test_case "memoization (fig 13)" `Quick test_memoization_study;
        ] );
      ( "intermittent",
        [ Alcotest.test_case "sample accounting" `Slow
            test_intermittent_sample_accounting;
          Alcotest.test_case "var on both systems (figs 10/11)" `Slow
            test_intermittent_var ] );
      ( "sampling",
        [
          Alcotest.test_case "glucose (fig 3)" `Quick test_glucose_study;
          Alcotest.test_case "var datasets (fig 17)" `Quick test_var_sampling_study;
        ] );
      ("table 1", [ Alcotest.test_case "rows" `Quick test_table1_rows ]);
      ( "ablations",
        [
          Alcotest.test_case "memo table size" `Quick test_ablation_memo;
          Alcotest.test_case "watchdog period" `Slow test_ablation_watchdog;
          Alcotest.test_case "energy per cycle" `Slow test_ablation_energy;
          Alcotest.test_case "subword granularity" `Quick test_ablation_subword;
        ] );
      ( "area model",
        [
          Alcotest.test_case "adder (section V-D)" `Quick test_area_adder;
          Alcotest.test_case "memo table (section V-D)" `Quick test_area_memo;
        ] );
    ]
