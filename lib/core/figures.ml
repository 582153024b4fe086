open Wn_workloads

type options = {
  scale : Workload.scale;
  seed : int;
  setup : Intermittent.setup;
  out_dir : string option;
  jobs : int;
}

let default_options =
  { scale = Workload.Small; seed = 7; setup = Intermittent.default_setup;
    out_dir = None; jobs = 1 }

let hr ppf title = Format.fprintf ppf "@.=== %s ===@." title

let write_image opts name ~width ~height pixels =
  match opts.out_dir with
  | None -> None
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (name ^ ".pgm") in
      Image.write_pgm ~path ~width ~height pixels;
      Some path

(* ------------------------------------------------------------------ *)

let table1 ppf opts =
  hr ppf "Table I: benchmark suite";
  Table1.pp ppf (Table1.rows ~seed:opts.seed ~bits:8 opts.scale)

(* ------------------------------------------------------------------ *)

let fig2 ppf opts =
  hr ppf "Figure 2: Conv2d output, baseline vs WN at 50% runtime";
  let w = Suite.find opts.scale "Conv2d" in
  let p = Conv2d.params opts.scale in
  let cfg = { Workload.bits = 8; provisioned = true } in
  let rng = Wn_util.Rng.create opts.seed in
  let inputs = w.Workload.fresh_inputs rng in
  let anytime = Runner.build w cfg in
  let reference, baseline = Runner.precise_reference anytime inputs in
  let half_run build =
    let machine = Runner.machine build in
    Runner.load_sample build machine inputs;
    let _ =
      Wn_runtime.Executor.run ~max_wall_cycles:(baseline / 2) ~machine
        ~supply:(Wn_power.Supply.always_on ()) ()
    in
    Runner.output build machine
  in
  let precise_half = half_run (Runner.build ~precise:true w cfg) in
  let wn_half = half_run anytime in
  let pixels raw = Image.nrmse_to_pixels raw ~scale:Conv2d.output_scale in
  let describe name out =
    let nonzero =
      Array.fold_left (fun n v -> if v <> 0.0 then n + 1 else n) 0 out
    in
    Format.fprintf ppf
      "%-24s NRMSE %7.3f%%  pixels written %4.1f%%%s@." name
      (Runner.nrmse_pct ~reference out)
      (100.0 *. float_of_int nonzero /. float_of_int (Array.length out))
      (match
         write_image opts ("fig2_" ^ name) ~width:p.Conv2d.width
           ~height:p.Conv2d.height (pixels out)
       with
      | Some path -> "  -> " ^ path
      | None -> "")
  in
  describe "baseline_100pct" reference;
  describe "baseline_50pct" precise_half;
  describe "wn_8bit_50pct" wn_half;
  Format.fprintf ppf
    "(the 50%%-runtime baseline leaves the image partial; WN covers it \
     entirely at reduced precision)@."

(* ------------------------------------------------------------------ *)

let fig3 ppf opts =
  hr ppf "Figure 3: blood glucose, input sampling vs anytime processing";
  let g = Sampling.glucose_study ~seed:opts.seed ~bits:4 opts.scale in
  Format.fprintf ppf "%-7s %9s %9s %9s@." "time" "clinical" "sampled" "anytime";
  List.iter
    (fun (r : Sampling.glucose_row) ->
      Format.fprintf ppf "%-7s %9.1f %9s %9.1f%s@." r.Sampling.clock
        r.Sampling.clinical
        (match r.Sampling.sampled with
        | Some v -> Printf.sprintf "%.1f" v
        | None -> "-")
        r.Sampling.anytime
        (if r.Sampling.clinical < Glucose.critical_threshold then "  << critical"
         else ""))
    g.Sampling.readings;
  Format.fprintf ppf
    "critical events: %d | detected by sampling: %d | by anytime: %d@."
    g.Sampling.total_dips g.Sampling.sampled_detected g.Sampling.anytime_detected;
  Format.fprintf ppf
    "anytime mean error %.2f%% (paper: 7.5%%; ISO bound 20%%), measured \
     precise/anytime cost ratio %.2f@."
    g.Sampling.anytime_mean_err_pct g.Sampling.cost_ratio

(* ------------------------------------------------------------------ *)

let print_curve ppf (c : Curves.curve) =
  Format.fprintf ppf "# %s %d-bit%s%s@." c.Curves.workload c.Curves.bits
    (if c.Curves.provisioned then "" else " unprovisioned")
    (if c.Curves.vector_loads then " +vector-loads" else "");
  Format.fprintf ppf "#   baseline %d cycles; precise output reached at %.2fx \
                      (final NRMSE %.4f%%)@."
    c.Curves.baseline_cycles
    (float_of_int c.Curves.anytime_cycles /. float_of_int c.Curves.baseline_cycles)
    c.Curves.final_nrmse;
  let pts = Array.of_list c.Curves.points in
  let n = Array.length pts in
  let step = max 1 (n / 12) in
  Format.fprintf ppf "#   runtime(norm) : ";
  Array.iteri
    (fun i p -> if i mod step = 0 then Format.fprintf ppf "%6.2f " p.Curves.runtime)
    pts;
  Format.fprintf ppf "@.#   NRMSE(%%)      : ";
  Array.iteri
    (fun i p -> if i mod step = 0 then Format.fprintf ppf "%6.2f " p.Curves.nrmse)
    pts;
  Format.fprintf ppf "@."

let fig9 ppf opts =
  hr ppf "Figure 9: runtime-quality trade-off curves (4-bit and 8-bit)";
  List.iter (print_curve ppf)
    (Curves.suite ~jobs:opts.jobs ~seed:opts.seed ~bits_list:[ 4; 8 ]
       (Suite.all opts.scale))

(* ------------------------------------------------------------------ *)

let intermittent_figure ppf opts system title =
  hr ppf title;
  Format.fprintf ppf
    "(setup: %d traces x %d invocations x %d samples; paper: 9 x 3)@."
    opts.setup.Intermittent.n_traces opts.setup.Intermittent.invocations
    opts.setup.Intermittent.samples_per_run;
  Format.fprintf ppf "%-10s %6s %9s %9s %10s %9s@." "benchmark" "bits"
    "speedup" "NRMSE" "skim-rate" "outages";
  let speedups = Hashtbl.create 4 in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun bits ->
          let r =
            Intermittent.run ~jobs:opts.jobs ~setup:opts.setup ~system ~bits w
          in
          let existing =
            Option.value ~default:[] (Hashtbl.find_opt speedups bits)
          in
          Hashtbl.replace speedups bits (r.Intermittent.speedup :: existing);
          Format.fprintf ppf "%-10s %6d %8.2fx %8.2f%% %9.0f%% %9.1f@."
            r.Intermittent.workload bits r.Intermittent.speedup
            r.Intermittent.nrmse
            (100.0 *. r.Intermittent.skim_rate)
            r.Intermittent.outages_per_task)
        [ 8; 4 ])
    (Suite.all opts.scale);
  List.iter
    (fun bits ->
      match Hashtbl.find_opt speedups bits with
      | Some xs ->
          Format.fprintf ppf "geomean speedup (%d-bit): %.2fx@." bits
            (Wn_util.Stats.geomean (Array.of_list xs))
      | None -> ())
    [ 8; 4 ]

let fig10 ppf opts =
  intermittent_figure ppf opts Intermittent.Clank
    "Figure 10: speedup & quality on the checkpoint-based volatile processor"

let fig11 ppf opts =
  intermittent_figure ppf opts Intermittent.Nvp
    "Figure 11: speedup & quality on the non-volatile processor"

(* ------------------------------------------------------------------ *)

let fig12 ppf opts =
  hr ppf "Figure 12: MatMul SWP with and without vectorized subword loads";
  let w = Suite.find opts.scale "MatMul" in
  let runs =
    Wn_exec.Pool.map ~jobs:opts.jobs
      (fun bits ->
        ( bits,
          Earliest.earliest ~seed:opts.seed ~bits w,
          Earliest.earliest ~vector_loads:true ~seed:opts.seed ~bits w ))
      [ 8; 4 ]
  in
  List.iter
    (fun (bits, plain, vec) ->
      Format.fprintf ppf
        "%d-bit: earliest output %7d cycles plain, %7d vectorized -> %.2fx \
         earlier (paper: %s), NRMSE %.3f%% both@."
        bits plain.Earliest.active_cycles vec.Earliest.active_cycles
        (float_of_int plain.Earliest.active_cycles
        /. float_of_int vec.Earliest.active_cycles)
        (if bits = 8 then "1.08x" else "1.24x")
        vec.Earliest.nrmse)
    runs

(* ------------------------------------------------------------------ *)

let fig13 ppf opts =
  hr ppf "Figure 13: memoization and zero skipping (Conv2d, earliest output)";
  let w = Suite.find opts.scale "Conv2d" in
  let row name speedup err =
    Format.fprintf ppf "%-24s %5.2fx  (NRMSE %.2f%%)@." name speedup err
  in
  let rows =
    Wn_exec.Pool.map ~jobs:opts.jobs
      (fun build ->
        match build with
        | `Precise memo ->
            let r =
              if memo then
                Earliest.precise_with ~memo_entries:16 ~zero_skip:true
                  ~seed:opts.seed w
              else Earliest.precise_with ~seed:opts.seed w
            in
            ( Printf.sprintf "precise, %s" (if memo then "16-entry" else "no table"),
              Earliest.speedup r,
              0.0 )
        | `Anytime (bits, memo) ->
            let r =
              if memo then
                Earliest.earliest ~memo_entries:16 ~zero_skip:true
                  ~seed:opts.seed ~bits w
              else Earliest.earliest ~seed:opts.seed ~bits w
            in
            ( Printf.sprintf "%d-bit, %s" bits (if memo then "16-entry" else "no table"),
              Earliest.speedup r,
              r.Earliest.nrmse ))
      [
        `Precise false; `Precise true;
        `Anytime (8, false); `Anytime (8, true);
        `Anytime (4, false); `Anytime (4, true);
      ]
  in
  List.iter (fun (name, speedup, err) -> row name speedup err) rows;
  Format.fprintf ppf
    "(paper: precise 1 -> 1.11x; 8-bit 1.31 -> 1.42x; 4-bit 1.7 -> 1.97x)@."

(* ------------------------------------------------------------------ *)

let fig14 ppf opts =
  hr ppf "Figure 14: provisioned vs unprovisioned SWV addition (MatAdd, 8-bit)";
  let w = Suite.find opts.scale "MatAdd" in
  List.iter (print_curve ppf)
    (Wn_exec.Pool.map ~jobs:opts.jobs
       (fun provisioned ->
         Curves.runtime_quality ~seed:opts.seed ~bits:8 ~provisioned w)
       [ false; true ]);
  Format.fprintf ppf
    "(unprovisioned addition plateaus: dropped carries are unrecoverable; \
     provisioned reaches the precise result)@."

(* ------------------------------------------------------------------ *)

let fig15 ppf opts =
  hr ppf "Figure 15: small subwords (Conv2d, earliest output)";
  let w = Suite.find opts.scale "Conv2d" in
  Format.fprintf ppf "%6s %9s %9s@." "bits" "speedup" "NRMSE";
  List.iter
    (fun (bits, e) ->
      Format.fprintf ppf "%6d %8.2fx %8.2f%%@." bits (Earliest.speedup e)
        e.Earliest.nrmse)
    (Wn_exec.Pool.map ~jobs:opts.jobs
       (fun bits -> (bits, Earliest.earliest ~seed:opts.seed ~bits w))
       [ 1; 2; 3; 4; 8 ])

let fig16 ppf opts =
  hr ppf "Figure 16: Conv2d earliest outputs with small subwords (images)";
  let w = Suite.find opts.scale "Conv2d" in
  let p = Conv2d.params opts.scale in
  List.iter
    (fun (bits, e) ->
      let path =
        write_image opts
          (Printf.sprintf "fig16_%dbit" bits)
          ~width:p.Conv2d.width ~height:p.Conv2d.height
          (Image.nrmse_to_pixels e.Earliest.out ~scale:Conv2d.output_scale)
      in
      Format.fprintf ppf "%d-bit earliest: NRMSE %6.2f%% at %.2fx speedup%s@."
        bits e.Earliest.nrmse (Earliest.speedup e)
        (match path with Some p -> "  -> " ^ p | None -> ""))
    (Wn_exec.Pool.map ~jobs:opts.jobs
       (fun bits -> (bits, Earliest.earliest ~seed:opts.seed ~bits w))
       [ 1; 2; 3; 4 ])

(* ------------------------------------------------------------------ *)

let fig17 ppf opts =
  hr ppf "Figure 17: WN vs input sampling (Var data sets)";
  let v = Sampling.var_study ~seed:opts.seed opts.scale in
  Format.fprintf ppf "%-8s %12s %12s %12s@." "dataset" "precise" "WN(4-bit)"
    "sampled";
  List.iter
    (fun (r : Sampling.var_row) ->
      Format.fprintf ppf "%-8d %12.0f %12.0f %12s@." r.Sampling.dataset
        r.Sampling.exact r.Sampling.anytime
        (match r.Sampling.sampled with
        | Some v -> Printf.sprintf "%.0f" v
        | None -> "(missed)"))
    v.Sampling.rows;
  Format.fprintf ppf
    "WN mean error %.2f%% (paper: 1.53%%); precise costs %.2fx the anytime \
     pass, so sampling keeps 1 of %d data sets@."
    v.Sampling.anytime_mean_err_pct v.Sampling.cost_ratio v.Sampling.keep_every

(* ------------------------------------------------------------------ *)

let area_power ppf _opts =
  hr ppf "Section V-D: area and power";
  Format.fprintf ppf "%a@.@.%a@." Wn_area.Area_model.pp_adder
    (Wn_area.Area_model.adder ())
    Wn_area.Area_model.pp_memo
    (Wn_area.Area_model.memo_table ());
  Format.fprintf ppf
    "@.(paper: +0.02%% area, +4%% adder power, Fmax 1.12 GHz, memo table \
     40.5%% of a 16x16 multiplier)@."

let ablation_memo ppf opts =
  hr ppf "Ablation: memoization table size (Conv2d 4-bit, earliest output)";
  Ablations.pp_memo ppf
    (Ablations.memo_sweep ~jobs:opts.jobs ~seed:opts.seed opts.scale);
  Format.fprintf ppf
    "(paper footnote 5: more than 16 entries buys only modest gains)@."

let ablation_watchdog ppf opts =
  hr ppf "Ablation: Clank watchdog period (Var 4-bit)";
  Ablations.pp_watchdog ppf
    (Ablations.watchdog_sweep ~jobs:opts.jobs ~setup:opts.setup opts.scale);
  Format.fprintf ppf
    "(periods approaching the ~15k-cycle charge burst strand the baseline      in re-execution — the overhead skim points remove)@."

let ablation_energy ppf opts =
  hr ppf "Ablation: energy per cycle / burst length (Var 4-bit, Clank)";
  Ablations.pp_energy ppf
    (Ablations.energy_sweep ~jobs:opts.jobs ~setup:opts.setup opts.scale)

let ablation_subword ppf opts =
  hr ppf "Ablation: subword granularity across the suite (earliest output)";
  Ablations.pp_subword ppf
    (Ablations.subword_sweep ~jobs:opts.jobs ~seed:opts.seed opts.scale)

let ext_sqrt ppf opts =
  hr ppf
    "Extension (footnote 3): anytime square root on the Dist kernel";
  let w = Suite.find opts.scale "Dist" in
  List.iter
    (fun (bits, e, c) ->
      Format.fprintf ppf
        "%d-bit stages: earliest root at %.2fx speedup, NRMSE %.2f%%@." bits
        (Earliest.speedup e) e.Earliest.nrmse;
      print_curve ppf c)
    (Wn_exec.Pool.map ~jobs:opts.jobs
       (fun bits ->
         ( bits,
           Earliest.earliest ~seed:opts.seed ~bits w,
           Curves.runtime_quality ~seed:opts.seed ~bits w ))
       [ 4; 8 ])

let all =
  [
    ("table1", table1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("fig17", fig17);
    ("area_power", area_power);
    ("ablation_memo", ablation_memo);
    ("ablation_watchdog", ablation_watchdog);
    ("ablation_energy", ablation_energy);
    ("ablation_subword", ablation_subword);
    ("ext_sqrt", ext_sqrt);
  ]

let find id =
  match List.assoc_opt (String.lowercase_ascii id) all with
  | Some f -> Ok f
  | None ->
      Error
        (Printf.sprintf "unknown experiment %S; know: %s" id
           (String.concat ", " (List.map fst all)))
