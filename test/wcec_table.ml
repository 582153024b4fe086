(* Prints the WCEC-vs-measured table in EXPERIMENTS.md: for every suite
   benchmark, the static per-charge bound under Clank and NVP next to
   the largest burn window folded from the executor's event stream
   ({!Event_fold}) with outages forced at the soundness oracle's
   awkward instants ({!Event_fold.oracle_cuts}).  Regenerate with
   [dune exec test/wcec_table.exe]; CI fails when a printed row is
   missing from EXPERIMENTS.md. *)

open Wn_runtime
module Workload = Wn_workloads.Workload
module Suite = Wn_workloads.Suite
module Runner = Wn_core.Runner
module Rng = Wn_util.Rng
module Progress = Wn_analysis.Progress
module Compile = Wn_compiler.Compile

let measured ~policy b =
  let w = b.Runner.workload in
  let m = Runner.machine b in
  Runner.load_sample b m (w.Workload.fresh_inputs (Rng.create 11));
  let outcome, fold =
    Event_fold.run ~cuts:Event_fold.oracle_cuts ~policy ~machine:m ()
  in
  assert outcome.Executor.completed;
  fold.Event_fold.max_window

let bound = function
  | Progress.Finite c -> string_of_int c
  | Progress.Unbounded _ -> "unbounded"

let () =
  Printf.printf
    "| benchmark | whole-program WCEC | Clank bound | Clank measured | NVP \
     bound | NVP measured |\n";
  Printf.printf "|---|---:|---:|---:|---:|---:|\n";
  List.iter
    (fun (w : Workload.t) ->
      let b = Runner.build w { Workload.bits = 8; provisioned = true } in
      let report rt = Compile.verify ~runtime:rt b.Runner.compiled in
      let static rt =
        bound (Progress.max_region_cycles (report rt))
      in
      let clank_meas =
        measured ~policy:(Executor.Clank Executor.default_clank) b
      in
      let nvp_meas = measured ~policy:(Executor.Nvp Executor.default_nvp) b in
      Printf.printf "| %s | %s | %s | %d | %s | %d |\n" w.Workload.name
        (bound (report (Progress.skim_only ())).Progress.rp_total)
        (static (Progress.clank ()))
        clank_meas
        (static (Progress.nvp ()))
        nvp_meas)
    (Suite.extended Workload.Small)
