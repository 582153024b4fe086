(* wn — command-line front end for the What's Next reproduction.

   Subcommands:
     wn list                      benchmarks and experiments
     wn run BENCH ...             execute one benchmark task
     wn curve BENCH ...           runtime-quality curve as CSV
     wn figure [ID ...]           regenerate tables/figures of the paper
     wn inject BENCH ...          outage-point fault-injection sweep
     wn fleet BENCH ...           fleet-scale deployment simulation
     wn compile [BENCH] ...       run the pass pipeline, lint after every pass
     wn insn [BENCH ...]          dynamic instruction counts (the CI gate)
     wn disasm BENCH ...          show the compiled WN-32 program
     wn lint BENCH ...            static verification of the compiled program
     wn verify BENCH ...          static forward-progress (WCEC) verification
     wn source BENCH ...          show the generated WNC source *)

open Cmdliner
open Wn_workloads

(* ---------------- shared arguments ---------------- *)

let scale_arg =
  let doc = "Use the paper's full workload dimensions (slower)." in
  Term.app
    (Term.const (fun paper -> if paper then Workload.Paper else Workload.Small))
    Arg.(value & flag & info [ "paper-scale" ] ~doc)

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Input generator seed.")

let bits_arg =
  Arg.(value & opt int 8 & info [ "bits" ] ~docv:"BITS" ~doc:"Subword size (1-16).")

let jobs_arg =
  let doc =
    "Domain-pool width for the experiment fan-out (default: the \
     machine's recommended domain count, capped).  Output is \
     bit-identical for every value."
  in
  Arg.(
    value
    & opt int (Wn_exec.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit machine-readable JSON instead of the human report.")

let bench_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BENCH"
        ~doc:"Benchmark name (Conv2d, MatMul, MatAdd, Home, Var, NetMotion).")

(* Compiler failures (bad --bits for a benchmark's pragmas, strict
   verification, ...) surface as clean cmdliner errors, not tracebacks. *)
let catch_compile_error f =
  match f () with
  | r -> r
  | exception Wn_compiler.Compile.Error e -> Error (`Msg e)

(* Range checks for numeric options cmdliner's [int] converter accepts
   syntactically: a nonsensical value exits with a one-line error, not a
   traceback (or worse, a divide-by-zero deep in a sweep). *)
let require_positive name v =
  if v >= 1 then Ok v
  else Error (`Msg (Printf.sprintf "--%s must be >= 1 (got %d)" name v))

let require_non_negative name v =
  if v >= 0 then Ok v
  else Error (`Msg (Printf.sprintf "--%s must be >= 0 (got %d)" name v))

(* A capacitor of [cap_uf] microfarads: [Capacitor.create] also rejects
   one whose full charge the integer energy accounting cannot hold. *)
let capacitor_of_uf ?v_on ?v_off ?v_max cap_uf =
  if not (cap_uf > 0.0) then Error (`Msg "--cap must be positive")
  else
    match
      Wn_power.Capacitor.create ~capacitance:(cap_uf *. 1e-6) ?v_on ?v_off
        ?v_max ()
    with
    | c -> Ok c
    | exception Invalid_argument _ ->
        Error
          (`Msg
             "capacitor out of range: its full charge must stay below 2^60 \
              fJ (about 1.15 kJ)")

let ( let* ) = Result.bind

let find_bench scale name =
  match Suite.find_opt scale name with
  | Some w -> Ok w
  | None ->
      Error (`Msg (Printf.sprintf "unknown benchmark %S (try `wn list')" name))

(* Hand-parsed like --trace so an unknown engine gives the same
   one-line diagnostic shape, not a multi-line usage dump. *)
let engine_arg =
  Arg.(
    value & opt string "block"
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Executor stepping engine: $(b,block) (fused basic-block \
           superinstructions with energy-gated entry, the default) or \
           $(b,reference) (every instruction through the ISA spec, \
           the cross-check).  Both produce byte-identical reports; the \
           choice only affects simulation speed.")

let find_engine id =
  match Wn_runtime.Executor.engine_of_string id with
  | Some e -> Ok e
  | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown engine %S (know: block, reference)" id))

(* ---------------- wn list ---------------- *)

let list_cmd =
  let run () =
    print_endline "Benchmarks (Table I):";
    List.iter
      (fun (w : Workload.t) ->
        Printf.printf "  %-10s %-22s %s\n" w.Workload.name w.Workload.area
          w.Workload.description)
      (Suite.all Workload.Small);
    print_endline "Extensions (beyond Table I):";
    List.iter
      (fun (w : Workload.t) ->
        Printf.printf "  %-10s %-22s %s\n" w.Workload.name w.Workload.area
          w.Workload.description)
      (Suite.extensions Workload.Small);
    print_endline "\nExperiments (tables/figures of the paper):";
    Printf.printf "  %s\n" (String.concat " " (List.map fst Wn_core.Figures.all))
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks and experiments")
    Term.(const run $ const ())

(* ---------------- wn run ---------------- *)

let system_arg =
  let sys_conv =
    Arg.enum [ ("none", `None); ("clank", `Clank); ("nvp", `Nvp) ]
  in
  Arg.(
    value & opt sys_conv `None
    & info [ "system" ] ~docv:"SYS"
        ~doc:
          "Intermittency model: $(b,none) (continuous power), $(b,clank) \
           (checkpointing volatile processor) or $(b,nvp) (non-volatile \
           processor).")

let precise_arg =
  Arg.(value & flag & info [ "precise" ] ~doc:"Build the precise baseline (no WN).")

(* Parsed by hand rather than [Arg.enum] so an unknown id gives the
   same one-line diagnostic shape as an unknown benchmark, not a
   multi-line usage dump. *)
let trace_arg =
  Arg.(
    value & opt string "rf"
    & info [ "trace" ] ~docv:"TRACE"
        ~doc:
          "Harvesting trace for --system clank/nvp: $(b,rf) (bursty RF), \
           $(b,square) (2 ms on / 8 ms off) or $(b,constant).")

let find_trace = function
  | "rf" -> Ok `Rf
  | "square" -> Ok `Square
  | "constant" -> Ok `Constant
  | id ->
      Error
        (`Msg
           (Printf.sprintf "unknown trace %S (know: rf, square, constant)" id))

let run_bench bench_name scale bits precise system trace_name seed =
  let* w = find_bench scale bench_name in
  let* trace_id = find_trace trace_name in
  catch_compile_error @@ fun () ->
      let cfg = { Workload.bits; provisioned = true } in
      let b = Wn_core.Runner.build ~precise w cfg in
      let rng = Wn_util.Rng.create seed in
      let inputs = w.Workload.fresh_inputs rng in
      let machine = Wn_core.Runner.machine b in
      Wn_core.Runner.load_sample b machine inputs;
      let trace () =
        match trace_id with
        | `Rf -> Wn_power.Trace.rf_burst ~seed:(seed + 1) ~duration_s:60.0 ()
        | `Square ->
            Wn_power.Trace.square ~on_ms:2 ~off_ms:8 ~power:2e-3 ~duration_s:60.0
        | `Constant -> Wn_power.Trace.constant ~power:2e-3 ~duration_s:60.0
      in
      let harvesting () =
        Wn_power.Supply.create ~trace:(trace ())
          ~capacitor:(Wn_power.Capacitor.create ()) ()
      in
      let policy, supply =
        match system with
        | `None -> (Wn_runtime.Executor.Always_on, Wn_power.Supply.always_on ())
        | `Clank ->
            (Wn_runtime.Executor.Clank Wn_runtime.Executor.default_clank,
             harvesting ())
        | `Nvp ->
            (Wn_runtime.Executor.Nvp Wn_runtime.Executor.default_nvp,
             harvesting ())
      in
      let o = Wn_runtime.Executor.run ~policy ~machine ~supply () in
      let out = Wn_core.Runner.output b machine in
      let golden = w.Workload.golden inputs in
      Printf.printf "%s (%s, %d-bit)\n" w.Workload.name
        (if precise then "precise" else "anytime")
        bits;
      Printf.printf "  completed        %b%s\n" o.Wn_runtime.Executor.completed
        (if o.Wn_runtime.Executor.skimmed then " (via skim point)" else "");
      Printf.printf "  active cycles    %d (%.2f ms at 24 MHz)\n"
        o.Wn_runtime.Executor.active_cycles
        (float_of_int o.Wn_runtime.Executor.active_cycles /. 24e3);
      Printf.printf "  wall cycles      %d\n" o.Wn_runtime.Executor.wall_cycles;
      Printf.printf "  outages          %d\n" o.Wn_runtime.Executor.outage_count;
      Printf.printf "  checkpoints      %d (re-executed %d instructions)\n"
        o.Wn_runtime.Executor.checkpoint_count
        o.Wn_runtime.Executor.reexecuted_instructions;
      Printf.printf "  retired          %d instructions\n"
        o.Wn_runtime.Executor.retired;
      Printf.printf "  output NRMSE     %.4f%% vs the golden model\n"
        (Wn_core.Runner.nrmse_pct ~reference:golden out);
      Ok ()

let run_cmd =
  let term =
    Term.(
      term_result
        (const run_bench $ bench_arg $ scale_arg $ bits_arg $ precise_arg
       $ system_arg $ trace_arg $ seed_arg))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute one benchmark task and report its outcome")
    term

(* ---------------- wn curve ---------------- *)

let curve_cmd =
  let benches_arg =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"BENCH"
          ~doc:
            "Benchmark name(s) (Conv2d, MatMul, MatAdd, Home, Var, \
             NetMotion); several run in parallel under $(b,--jobs).")
  in
  let points_arg =
    Arg.(value & opt int 48 & info [ "points" ] ~doc:"Snapshot density.")
  in
  let vector_arg =
    Arg.(value & flag & info [ "vector-loads" ] ~doc:"Vectorize SWP loads (fig 12).")
  in
  let unprov_arg =
    Arg.(value & flag & info [ "unprovisioned" ] ~doc:"Unprovisioned SWV (fig 14).")
  in
  let run benches scale bits seed points vector_loads unprov jobs =
    let rec find_all = function
      | [] -> Ok []
      | b :: rest -> (
          match find_bench scale b with
          | Error e -> Error e
          | Ok w -> Result.map (fun ws -> w :: ws) (find_all rest))
    in
    let* points = require_positive "points" points in
    let* jobs = require_positive "jobs" jobs in
    match find_all benches with
    | Error e -> Error e
    | Ok ws ->
        catch_compile_error @@ fun () ->
        let curves =
          Wn_core.Curves.suite ~jobs ~points ~vector_loads
            ~provisioned:(not unprov) ~seed ~bits_list:[ bits ] ws
        in
        List.iter (fun c -> Format.printf "%a@?" Wn_core.Curves.pp c) curves;
        Ok ()
  in
  Cmd.v
    (Cmd.info "curve"
       ~doc:
         "Emit runtime-quality trade-off curves as CSV (one per \
          benchmark, computed on a domain pool)")
    Term.(
      term_result
        (const run $ benches_arg $ scale_arg $ bits_arg $ seed_arg $ points_arg
       $ vector_arg $ unprov_arg $ jobs_arg))

(* ---------------- wn figure ---------------- *)

let figure_cmd =
  let ids_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:
            "Experiment ids, e.g. fig9, table1, area_power; none runs every \
             experiment in paper order.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR" ~doc:"Write figure images (PGM) to $(docv).")
  in
  let paper_setup_arg =
    Arg.(
      value & flag
      & info [ "paper-setup" ]
          ~doc:"Use the paper's 9 traces x 3 invocations for figures 10/11.")
  in
  let run ids scale seed out paper_setup engine_name jobs =
    let* jobs = require_positive "jobs" jobs in
    let* _ = require_non_negative "seed" seed in
    let* engine = find_engine engine_name in
    (* Every id is checked before the first experiment runs, so a typo
       late in the list costs nothing and prints nothing on stdout. *)
    let* experiments =
      List.fold_right
        (fun id acc ->
          let* rest = acc in
          match Wn_core.Figures.find id with
          | Ok f -> Ok ((id, f) :: rest)
          | Error e -> Error (`Msg e))
        (if ids = [] then List.map fst Wn_core.Figures.all else ids)
        (Ok [])
    in
    let setup =
      if paper_setup then Wn_core.Intermittent.paper_setup
      else Wn_core.Intermittent.default_setup
    in
    let opts =
      {
        Wn_core.Figures.scale;
        seed;
        setup = { setup with Wn_core.Intermittent.engine };
        out_dir = out;
        jobs;
      }
    in
    let ppf = Format.std_formatter in
    let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
    List.iter
      (fun (id, f) ->
        let t0 = Unix.gettimeofday () in
        f ppf opts;
        Format.pp_print_flush ppf ();
        (* Timing goes to stderr: stdout stays byte-identical across
           --jobs values and engines. *)
        Printf.eprintf "[%s: %.2fs wall, %d jobs]\n%!" id
          (Unix.gettimeofday () -. t0)
          jobs)
      experiments;
    Printf.eprintf "\n[experiments done in %.1fs wall / %.1fs cpu, %d jobs]\n%!"
      (Unix.gettimeofday () -. wall0)
      (Sys.time () -. cpu0)
      jobs;
    Ok ()
  in
  Cmd.v
    (Cmd.info "figure"
       ~doc:
         "Regenerate tables and figures of the paper (every experiment when \
          no id is given)")
    Term.(
      term_result
        (const run $ ids_arg $ scale_arg $ seed_arg $ out_arg $ paper_setup_arg
       $ engine_arg $ jobs_arg))

(* ---------------- wn inject ---------------- *)

let inject_cmd =
  let points_arg =
    Arg.(
      value & opt int 500
      & info [ "points" ] ~docv:"N"
          ~doc:"Sampled outage points per configuration (>= 1).")
  in
  let inject_seed_arg =
    Arg.(
      value & opt int 11
      & info [ "seed" ] ~docv:"SEED" ~doc:"Boundary-sampling seed (>= 0).")
  in
  let exhaustive_arg =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:"Inject at every instruction boundary (ignores --points).")
  in
  let inj_system_arg =
    let sys_conv =
      Arg.enum [ ("clank", `Clank); ("nvp", `Nvp); ("both", `Both) ]
    in
    Arg.(
      value & opt sys_conv `Both
      & info [ "system" ] ~docv:"SYS"
          ~doc:"Intermittency model to sweep: $(b,clank), $(b,nvp) or $(b,both).")
  in
  let inj_skim_arg =
    let skim_conv = Arg.enum [ ("on", `On); ("off", `Off); ("both", `Both) ] in
    Arg.(
      value & opt skim_conv `Both
      & info [ "skim" ] ~docv:"MODE"
          ~doc:
            "Build under test: $(b,on) (anytime build with skim points), \
             $(b,off) (precise build) or $(b,both).")
  in
  let differential_arg =
    Arg.(
      value & flag
      & info [ "differential" ]
          ~doc:
            "Also run every point under the reference engine (every \
             instruction through the ISA spec) and require \
             bit-identical restore state and outcome.")
  in
  let keyframe_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "keyframe-interval" ] ~docv:"K"
          ~doc:
            "Snapshot the continuous run every $(docv) retired \
             instructions and resume injected points from the nearest \
             snapshot instead of replaying the whole prefix.  0 \
             disables keyframes; without the flag the interval is \
             derived from the surveyed boundary count.  Reports are \
             byte-identical for every value.")
  in
  let full_keyframes_arg =
    Arg.(
      value & flag
      & info [ "full-keyframes" ]
          ~doc:
            "Capture keyframes as isolated full-memory copies instead \
             of delta snapshots sharing unwritten pages.  Observably \
             identical (reports are byte-identical); for store-size \
             and speed comparison.")
  in
  let run bench scale bits points seed exhaustive system skim differential
      keyframe_interval full_keyframes engine_name jobs =
    let* jobs = require_positive "jobs" jobs in
    let* points = require_positive "points" points in
    let* seed = require_non_negative "seed" seed in
    let* keyframe_interval =
      match keyframe_interval with
      | None -> Ok Wn_core.Inject.auto_keyframe_interval
      | Some k -> require_non_negative "keyframe-interval" k
    in
    let* engine = find_engine engine_name in
    match find_bench scale bench with
    | Error e -> Error e
    | Ok w ->
        catch_compile_error @@ fun () ->
        let systems =
          match system with
          | `Clank -> [ Wn_core.Intermittent.Clank ]
          | `Nvp -> [ Wn_core.Intermittent.Nvp ]
          | `Both -> [ Wn_core.Intermittent.Clank; Wn_core.Intermittent.Nvp ]
        in
        let skims =
          match skim with
          | `On -> [ true ]
          | `Off -> [ false ]
          | `Both -> [ true; false ]
        in
        let mode =
          if exhaustive then Wn_core.Inject.Exhaustive
          else Wn_core.Inject.Sampled points
        in
        let total_violations = ref 0 in
        List.iter
          (fun system ->
            List.iter
              (fun skim ->
                let config =
                  {
                    Wn_core.Inject.default_config with
                    system;
                    skim;
                    bits;
                    sample_seed = seed;
                    differential;
                    keyframe_interval;
                    delta_frames = not full_keyframes;
                    engine;
                  }
                in
                let report = Wn_core.Inject.sweep ~jobs ~mode ~config w in
                total_violations :=
                  !total_violations
                  + List.length report.Wn_core.Inject.violations;
                Format.printf "%a@?" Wn_core.Inject.pp report)
              skims)
          systems;
        if !total_violations = 0 then Ok ()
        else
          Error
            (`Msg
               (Printf.sprintf "fault-injection oracle: %d violation(s)"
                  !total_violations))
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Sweep forced outages over a benchmark's instruction boundaries \
          and check the crash-consistency oracle")
    Term.(
      term_result
        (const run $ bench_arg $ scale_arg $ bits_arg $ points_arg
       $ inject_seed_arg $ exhaustive_arg $ inj_system_arg $ inj_skim_arg
       $ differential_arg $ keyframe_arg $ full_keyframes_arg $ engine_arg
       $ jobs_arg))

(* ---------------- wn fleet ---------------- *)

let fleet_cmd =
  let benches_arg =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"BENCH"
          ~doc:
            "Benchmark name(s); devices take configurations from the \
             benchmark x system x bits cross product round-robin.")
  in
  let devices_arg =
    Arg.(
      value & opt int Wn_fleet.Fleet.default.Wn_fleet.Fleet.devices
      & info [ "devices" ] ~docv:"N" ~doc:"Fleet size (>= 1).")
  in
  let fleet_system_arg =
    let sys_conv =
      Arg.enum [ ("clank", `Clank); ("nvp", `Nvp); ("both", `Both) ]
    in
    Arg.(
      value & opt sys_conv `Clank
      & info [ "system" ] ~docv:"SYS"
          ~doc:"Runtime model(s): $(b,clank), $(b,nvp) or $(b,both).")
  in
  let samples_arg =
    Arg.(
      value & opt int 1
      & info [ "samples" ] ~docv:"N"
          ~doc:"Input samples streamed through each device (>= 1).")
  in
  let batch_arg =
    Arg.(
      value & opt int 0
      & info [ "batch" ] ~docv:"B"
          ~doc:
            "Units per scheduled batch (0 = auto, ~256 batches).  The \
             batch partition — not the pool width — defines the \
             aggregation order, so reports are byte-identical at any \
             $(b,--jobs) for a fixed $(docv).")
  in
  let cap_arg =
    Arg.(
      value & opt float 10.0
      & info [ "cap" ] ~docv:"UF" ~doc:"Per-device capacitance in microfarads.")
  in
  let sketch_arg =
    Arg.(
      value & opt int Wn_fleet.Fleet.default.Wn_fleet.Fleet.sketch_capacity
      & info [ "sketch-capacity" ] ~docv:"K"
          ~doc:"Percentile-sketch buffer capacity (>= 8).")
  in
  let run benches scale bits system devices samples batch cap_uf sketch
      trace_name seed engine_name json jobs =
    let* jobs = require_positive "jobs" jobs in
    let* engine = find_engine engine_name in
    let* devices = require_positive "devices" devices in
    let* samples = require_positive "samples" samples in
    let* batch = require_non_negative "batch" batch in
    let* seed = require_non_negative "seed" seed in
    let* () =
      if sketch >= 8 then Ok ()
      else Error (`Msg (Printf.sprintf "--sketch-capacity must be >= 8 (got %d)" sketch))
    in
    let* _ = capacitor_of_uf cap_uf in
    let* trace_class =
      match Wn_fleet.Fleet.trace_class_of_string trace_name with
      | Some t -> Ok t
      | None ->
          Error
            (`Msg
               (Printf.sprintf "unknown trace %S (know: rf, square, constant)"
                  trace_name))
    in
    let rec find_all = function
      | [] -> Ok []
      | b :: rest -> (
          match find_bench scale b with
          | Error e -> Error e
          | Ok w -> Result.map (fun ws -> w.Workload.name :: ws) (find_all rest))
    in
    let* benchmarks = find_all benches in
    let systems =
      match system with
      | `Clank -> [ Wn_core.Intermittent.Clank ]
      | `Nvp -> [ Wn_core.Intermittent.Nvp ]
      | `Both -> [ Wn_core.Intermittent.Clank; Wn_core.Intermittent.Nvp ]
    in
    catch_compile_error @@ fun () ->
    let descriptor =
      {
        Wn_fleet.Fleet.default with
        Wn_fleet.Fleet.devices;
        benchmarks;
        systems;
        bits_list = [ bits ];
        scale;
        samples_per_device = samples;
        trace_class;
        seed;
        capacitance = cap_uf *. 1e-6;
        batch;
        sketch_capacity = sketch;
        engine;
      }
    in
    let t0 = Unix.gettimeofday () in
    let report = Wn_fleet.Fleet.run ~jobs descriptor in
    let dt = Unix.gettimeofday () -. t0 in
    (* Wall time and throughput go to stderr so stdout stays
       byte-identical across --jobs values. *)
    Printf.eprintf "[fleet: %d units in %.2fs, %.0f units/s, %d jobs]\n%!"
      report.Wn_fleet.Fleet.units dt
      (float_of_int report.Wn_fleet.Fleet.units /. Float.max dt 1e-9)
      jobs;
    if json then print_string (Wn_fleet.Fleet.to_json report)
    else Format.printf "%a@?" Wn_fleet.Fleet.pp report;
    Ok ()
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Simulate a deployment of N intermittent devices and report \
          fleet-level quality/energy/outage/on-time distributions from \
          bounded-memory streaming aggregation")
    Term.(
      term_result
        (const run $ benches_arg $ scale_arg $ bits_arg $ fleet_system_arg
       $ devices_arg $ samples_arg $ batch_arg $ cap_arg $ sketch_arg
       $ trace_arg $ seed_arg $ engine_arg $ json_arg $ jobs_arg))

(* ---------------- wn disasm / wn source ---------------- *)

let build_compiled bench scale bits precise =
  match find_bench scale bench with
  | Error e -> Error e
  | Ok w ->
      catch_compile_error (fun () ->
          let cfg = { Workload.bits; provisioned = true } in
          let options =
            if precise then Wn_compiler.Compile.precise
            else Wn_compiler.Compile.anytime
          in
          Ok (w, Wn_compiler.Compile.compile_source ~options (w.Workload.source cfg)))

let disasm_cmd =
  let run bench scale bits precise =
    match build_compiled bench scale bits precise with
    | Error e -> Error e
    | Ok (w, compiled) ->
        Printf.printf "; %s (%s, %d-bit): %d instructions, %d bytes of code, \
                       %d bytes of data\n"
          w.Workload.name
          (if precise then "precise" else "anytime")
          bits
          (Array.length compiled.Wn_compiler.Compile.program)
          (Wn_compiler.Compile.code_size_bytes compiled)
          compiled.Wn_compiler.Compile.data_bytes;
        Format.printf "%a@?" Wn_compiler.Compile.pp_listing compiled;
        Ok ()
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Show a benchmark's compiled WN-32 assembly")
    Term.(
      term_result
        (const run $ bench_arg $ scale_arg $ bits_arg $ precise_arg))

let lint_cmd =
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit non-zero if any error-severity finding is reported.")
  in
  let run bench scale bits precise strict json =
    match build_compiled bench scale bits precise with
    | Error e -> Error e
    | Ok (w, compiled) ->
        let diags = Wn_compiler.Compile.lint compiled in
        if json then
          print_endline
            (Wn_analysis.Jsonu.diag_report
               ~extra:
                 [
                   ("benchmark", Wn_analysis.Jsonu.str w.Workload.name);
                   ( "build",
                     Wn_analysis.Jsonu.str
                       (if precise then "precise" else "anytime") );
                   ("bits", Wn_analysis.Jsonu.int bits);
                 ]
               diags)
        else
          Format.printf "%s (%s, %d-bit): %a@." w.Workload.name
            (if precise then "precise" else "anytime")
            bits Wn_analysis.Diag.pp_report diags;
        if strict && Wn_analysis.Diag.worst diags = Some Wn_analysis.Diag.Error
        then Error (`Msg "static verification failed")
        else Ok ()
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static verifier (CFG, liveness, skim safety, WAR \
          hazards, forward progress) over a benchmark's compiled program")
    Term.(
      term_result
        (const run $ bench_arg $ scale_arg $ bits_arg $ precise_arg
       $ strict_arg $ json_arg))

let verify_cmd =
  let runtime_arg =
    let sys_conv =
      Arg.enum [ ("clank", `Clank); ("nvp", `Nvp); ("skim", `Skim) ]
    in
    Arg.(
      value & opt sys_conv `Clank
      & info [ "system" ] ~docv:"SYS"
          ~doc:
            "Runtime model bounding the per-charge burn: $(b,clank) \
             (watchdog-capped epochs), $(b,nvp) (per-instruction commit) \
             or $(b,skim) (no dynamic net: the raw region WCEC must fit \
             the budget).")
  in
  let cap_arg =
    Arg.(
      value & opt float 10.0
      & info [ "cap" ] ~docv:"UF" ~doc:"Capacitance in microfarads.")
  in
  let v_on_arg =
    Arg.(
      value & opt float 2.3
      & info [ "v-on" ] ~docv:"V" ~doc:"Turn-on threshold voltage.")
  in
  let v_off_arg =
    Arg.(
      value & opt float 1.8
      & info [ "v-off" ] ~docv:"V" ~doc:"Brown-out threshold voltage.")
  in
  let watchdog_arg =
    Arg.(
      value & opt int Wn_runtime.Executor.default_clank.watchdog_period
      & info [ "watchdog" ] ~docv:"CYCLES"
          ~doc:"Clank watchdog period in cycles (ignored for other systems).")
  in
  let run bench scale bits precise system cap_uf v_on v_off watchdog json =
    let* watchdog = require_positive "watchdog" watchdog in
    let* () =
      if 0.0 < v_off && v_off < v_on then Ok ()
      else Error (`Msg "need 0 < --v-off < --v-on")
    in
    let* capacitor =
      capacitor_of_uf ~v_on ~v_off ~v_max:(Float.max v_on 2.5) cap_uf
    in
    match build_compiled bench scale bits precise with
    | Error e -> Error e
    | Ok (w, compiled) ->
        let runtime =
          match system with
          | `Clank ->
              Wn_analysis.Progress.clank ~watchdog_period:watchdog ()
          | `Nvp -> Wn_analysis.Progress.nvp ()
          | `Skim -> Wn_analysis.Progress.skim_only ()
        in
        let budget = Wn_power.Capacitor.restart_budget capacitor in
        let report = Wn_compiler.Compile.verify ~runtime ~budget compiled in
        let diags = Wn_analysis.Progress.diagnostics report in
        if json then
          print_endline
            (Wn_analysis.Jsonu.diag_report
               ~extra:
                 [
                   ("benchmark", Wn_analysis.Jsonu.str w.Workload.name);
                   ( "build",
                     Wn_analysis.Jsonu.str
                       (if precise then "precise" else "anytime") );
                   ("bits", Wn_analysis.Jsonu.int bits);
                   ("report", Wn_analysis.Jsonu.of_progress report);
                 ]
               diags)
        else begin
          Format.printf "%s (%s, %d-bit):@.%a" w.Workload.name
            (if precise then "precise" else "anytime")
            bits Wn_analysis.Progress.pp_report report;
          Format.printf "%a@." Wn_analysis.Diag.pp_report diags
        end;
        if Wn_analysis.Diag.worst diags = Some Wn_analysis.Diag.Error then
          Error (`Msg "forward-progress verification failed")
        else Ok ()
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Statically verify forward progress: per-region worst-case \
          energy (WCEC) against the capacitor's restart budget")
    Term.(
      term_result
        (const run $ bench_arg $ scale_arg $ bits_arg $ precise_arg
       $ runtime_arg $ cap_arg $ v_on_arg $ v_off_arg $ watchdog_arg
       $ json_arg))

(* ---------------- wn compile ---------------- *)

let compile_cmd =
  let bench_opt_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"BENCH"
          ~doc:
            "Benchmark name (Conv2d, MatMul, MatAdd, Home, Var, NetMotion); \
             omit with $(b,--file).")
  in
  let file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:"Compile WNC source from $(docv) instead of a benchmark.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Fail on the first pass whose linted output carries an \
             error-severity finding, reporting that pass's complete \
             findings.")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-after" ] ~docv:"PASS"
          ~doc:
            "Print the program as it leaves $(docv) (IR passes print \
             statements, assembly passes a listing).  See \
             $(b,--list-passes) for the names.")
  in
  let list_passes_arg =
    Arg.(
      value & flag
      & info [ "list-passes" ]
          ~doc:"List the pipeline's passes in execution order and exit.")
  in
  let no_opt_arg =
    Arg.(
      value & flag
      & info [ "no-opt" ]
          ~doc:
            "Disable the optional optimizer passes (constfold, \
             strength-reduce, licm, addr-cse); the pipeline's spine \
             still runs.")
  in
  let run bench file scale bits precise strict dump_after list_passes no_opt =
    let options =
      let base =
        if precise then Wn_compiler.Compile.precise
        else Wn_compiler.Compile.anytime
      in
      if no_opt then
        { base with Wn_compiler.Compile.passes = Wn_compiler.Compile.no_passes }
      else base
    in
    if list_passes then begin
      List.iter print_endline (Wn_compiler.Compile.pass_names options);
      Ok ()
    end
    else
      let* source =
        match (bench, file) with
        | _, Some path -> (
            match In_channel.with_open_text path In_channel.input_all with
            | s -> Ok s
            | exception Sys_error e -> Error (`Msg e))
        | Some b, None ->
            let* w = find_bench scale b in
            Ok (w.Workload.source { Workload.bits; provisioned = true })
        | None, None -> Error (`Msg "need a BENCH argument or --file")
      in
      catch_compile_error @@ fun () ->
      let compiled =
        Wn_compiler.Compile.compile_source ~options ~strict ?dump_after source
      in
      (match dump_after with
      | Some pass ->
          List.iter
            (fun (name, text) ->
              Printf.printf "; after pass %s\n%s" name text;
              if text = "" || text.[String.length text - 1] <> '\n' then
                print_newline ())
            (List.filter
               (fun (name, _) -> name = pass)
               compiled.Wn_compiler.Compile.dumps)
      | None ->
          Printf.printf "%d instructions, %d bytes of code, %d bytes of data\n"
            (Array.length compiled.Wn_compiler.Compile.program)
            (Wn_compiler.Compile.code_size_bytes compiled)
            compiled.Wn_compiler.Compile.data_bytes);
      Ok ()
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Run the pass pipeline over a benchmark or a WNC source file, \
          linting after every pass")
    Term.(
      term_result
        (const run $ bench_opt_arg $ file_arg $ scale_arg $ bits_arg
       $ precise_arg $ strict_arg $ dump_arg $ list_passes_arg $ no_opt_arg))

(* ---------------- wn insn ---------------- *)

let insn_cmd =
  let benches_arg =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"BENCH"
          ~doc:"Benchmark name(s); defaults to the whole suite.")
  in
  let run benches scale bits seed json =
    let* _ = require_non_negative "seed" seed in
    let* ws =
      match benches with
      | [] -> Ok (Suite.all scale)
      | names ->
          List.fold_right
            (fun name acc ->
              let* ws = acc in
              let* w = find_bench scale name in
              Ok (w :: ws))
            names (Ok [])
    in
    catch_compile_error @@ fun () ->
    let report = Wn_core.Insn.measure ~seed ~bits ~scale ws in
    if json then print_string (Wn_core.Insn.json report)
    else Format.printf "%a@?" Wn_core.Insn.pp report;
    Ok ()
  in
  Cmd.v
    (Cmd.info "insn"
       ~doc:
         "Measure dynamic (retired) instruction counts per benchmark — \
          precise, anytime and optimizer-off builds — plus the CI \
          gate's scenario counters")
    Term.(
      term_result
        (const run $ benches_arg $ scale_arg $ bits_arg $ seed_arg $ json_arg))

let source_cmd =
  let run bench scale bits =
    match find_bench scale bench with
    | Error e -> Error e
    | Ok w ->
        print_string (w.Workload.source { Workload.bits; provisioned = true });
        Ok ()
  in
  Cmd.v
    (Cmd.info "source" ~doc:"Show a benchmark's WNC source")
    Term.(term_result (const run $ bench_arg $ scale_arg $ bits_arg))

(* ---------------- main ---------------- *)

let () =
  let doc = "The What's Next intermittent computing architecture (HPCA 2019)" in
  let info = Cmd.info "wn" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; curve_cmd; figure_cmd; inject_cmd; fleet_cmd;
            compile_cmd; insn_cmd; disasm_cmd; lint_cmd; verify_cmd;
            source_cmd ]))
