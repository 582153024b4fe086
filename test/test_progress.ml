(* Soundness oracle for the static forward-progress verifier: the
   per-charge WCEC bound computed by Wn_analysis.Progress must dominate
   the largest burn window folded from the executor's event stream
   ({!Event_fold}) for every suite benchmark, runtime policy and skim
   configuration — with outages forced at awkward instants, some of
   them straight after a restore.  The same fold must reproduce the
   executor's own outcome counters, so the stream doubles as a
   consistency check on its accounting.  Plus the seeded "doomed"
   configuration: a capacitor too small for any region, which the
   verifier must flag as an error and the simulator must confirm makes
   no progress. *)

open Wn_machine
open Wn_runtime
module Workload = Wn_workloads.Workload
module Suite = Wn_workloads.Suite
module Runner = Wn_core.Runner
module Rng = Wn_util.Rng
module Progress = Wn_analysis.Progress
module Compile = Wn_compiler.Compile

let bound_cycles name = function
  | Progress.Finite c -> c
  | Progress.Unbounded { binding_loop } ->
      Alcotest.failf "%s: static WCEC unbounded (loop at pc %d)" name
        binding_loop

let policies =
  [
    ("clank", Executor.Clank Executor.default_clank, Progress.clank ());
    ("nvp", Executor.Nvp Executor.default_nvp, Progress.nvp ());
  ]

let run_metered ?engine ~policy ~halt_at_skim b =
  let w = b.Runner.workload in
  let m = Runner.machine b in
  Runner.load_sample b m (w.Workload.fresh_inputs (Rng.create 11));
  let program = Machine.program m in
  (* Satellite check: the dynamic latency of every retired instruction
     stays within the static per-instruction ceiling the WCEC sums are
     built from. *)
  let check () =
    let pc = Machine.last_pc m in
    if Machine.last_cycles m > Machine.worst_case_cycles program.(pc) then
      Alcotest.failf "pc %d: dynamic %d cycles > static ceiling %d" pc
        (Machine.last_cycles m)
        (Machine.worst_case_cycles program.(pc))
  in
  Event_fold.run ?engine ~halt_at_skim ~check ~cuts:Event_fold.oracle_cuts
    ~policy ~machine:m ()

(* Every listed cut the run reaches before halting forces exactly one
   outage: without this the oracle would pass vacuously if the cuts
   stopped firing.  A cut at the halting instruction strikes nothing. *)
let check_cuts_fired name (o : Executor.outcome) =
  let reached =
    List.length
      (List.filter (fun c -> c < o.Executor.retired) Event_fold.oracle_cuts)
  in
  Alcotest.(check int) (name ^ ": one outage per reached cut") reached
    o.Executor.outage_count

let test_static_dominates_dynamic () =
  List.iter
    (fun (w : Workload.t) ->
      let b = Runner.build w { Workload.bits = 8; provisioned = true } in
      let report_of runtime = Compile.verify ~runtime b.Runner.compiled in
      List.iter
        (fun (pname, policy, runtime) ->
          let static =
            bound_cycles
              (Printf.sprintf "%s/%s" w.Workload.name pname)
              (Progress.max_region_cycles (report_of runtime))
          in
          List.iter
            (fun halt_at_skim ->
              let outcome, fold = run_metered ~policy ~halt_at_skim b in
              let dynamic = fold.Event_fold.max_window in
              let name =
                Printf.sprintf "%s/%s%s" w.Workload.name pname
                  (if halt_at_skim then "/skim" else "")
              in
              Alcotest.(check bool) (name ^ ": completed") true
                outcome.Executor.completed;
              check_cuts_fired name outcome;
              if dynamic > static then
                Alcotest.failf
                  "%s: measured region of %d cycles exceeds static bound %d"
                  name dynamic static)
            [ false; true ])
        policies)
    (Suite.extended Workload.Small)

(* Folding the observer stream reproduces the executor's outcome
   counters exactly, on both engines, with and without skim commits. *)
let test_event_fold_reproduces_outcome () =
  List.iter
    (fun (w : Workload.t) ->
      let b = Runner.build w { Workload.bits = 8; provisioned = true } in
      List.iter
        (fun (pname, policy, _) ->
          List.iter
            (fun (ename, engine) ->
              List.iter
                (fun halt_at_skim ->
                  let o, f = run_metered ~engine ~policy ~halt_at_skim b in
                  let name =
                    Printf.sprintf "%s/%s/%s%s" w.Workload.name pname ename
                      (if halt_at_skim then "/skim" else "")
                  in
                  let field what expected folded =
                    Alcotest.(check int) (name ^ ": " ^ what) expected folded
                  in
                  check_cuts_fired name o;
                  field "retired" o.Executor.retired f.Event_fold.retired;
                  field "active" o.Executor.active_cycles f.Event_fold.active;
                  field "overhead" o.Executor.overhead_cycles
                    f.Event_fold.overhead;
                  field "outages" o.Executor.outage_count f.Event_fold.outages;
                  field "checkpoints" o.Executor.checkpoint_count
                    f.Event_fold.checkpoints;
                  field "re-executed" o.Executor.reexecuted_instructions
                    f.Event_fold.reexecuted;
                  Alcotest.(check bool) (name ^ ": skimmed") o.Executor.skimmed
                    f.Event_fold.skimmed;
                  Alcotest.(check (option int)) (name ^ ": first skim")
                    o.Executor.first_skim_active f.Event_fold.first_skim_active)
                [ false; true ])
            [ ("block", Executor.Block); ("reference", Executor.Reference) ])
        policies)
    (Suite.extended Workload.Small)

(* The whole-program WCEC is also a sound bound on a single task's
   total active+overhead cycles under continuous power. *)
let test_total_dominates_always_on () =
  List.iter
    (fun (w : Workload.t) ->
      let b = Runner.build w { Workload.bits = 8; provisioned = true } in
      let report =
        Compile.verify ~runtime:(Progress.skim_only ()) b.Runner.compiled
      in
      let total =
        bound_cycles (w.Workload.name ^ ": total") report.Progress.rp_total
      in
      let m = Runner.machine b in
      Runner.load_sample b m (w.Workload.fresh_inputs (Rng.create 23));
      let outcome =
        Executor.run ~machine:m ~supply:(Wn_power.Supply.always_on ()) ()
      in
      Alcotest.(check bool) (w.Workload.name ^ ": completed") true
        outcome.Executor.completed;
      if outcome.Executor.active_cycles > total then
        Alcotest.failf "%s: ran %d active cycles, static total %d"
          w.Workload.name outcome.Executor.active_cycles total)
    (Suite.extended Workload.Small)

(* Doomed configuration: a 0.01 µF capacitor stores ~10 nJ between
   V_on and V_off — less than Clank's 40-cycle restore alone.  The
   verifier must report a budget error on every region, and the
   simulator must confirm the device spins on restores without ever
   completing a checkpoint or the task. *)
let doomed_capacitor () =
  Wn_power.Capacitor.create ~capacitance:0.01e-6 ~v_on:2.3 ~v_off:1.8 ()

let test_doomed_config_static () =
  let w = Suite.find_opt Workload.Small "MatAdd" |> Option.get in
  let b = Runner.build w { Workload.bits = 8; provisioned = true } in
  let budget = Wn_power.Capacitor.restart_budget (doomed_capacitor ()) in
  Alcotest.(check bool) "budget below one restore" true
    (budget
    < Wn_analysis.Energy.energy_of_cycles
        ~cycle_energy:Wn_analysis.Energy.default_cycle_energy 40);
  let diags =
    Wn_analysis.Progress.diagnostics
      (Compile.verify ~runtime:(Progress.clank ()) ~budget b.Runner.compiled)
  in
  Alcotest.(check bool) "budget error reported" true
    (List.exists
       (fun d ->
         d.Wn_analysis.Diag.rule = "progress-budget"
         && d.Wn_analysis.Diag.severity = Wn_analysis.Diag.Error)
       diags)

let test_doomed_config_dynamic () =
  let w = Suite.find_opt Workload.Small "MatAdd" |> Option.get in
  let b = Runner.build w { Workload.bits = 8; provisioned = true } in
  let m = Runner.machine b in
  Runner.load_sample b m (w.Workload.fresh_inputs (Rng.create 3));
  let supply =
    Wn_power.Supply.create
      ~trace:(Wn_power.Trace.constant ~power:1e-3 ~duration_s:1.0)
      ~capacitor:(doomed_capacitor ()) ~start_full:false ()
  in
  let outcome =
    Executor.run
      ~policy:(Executor.Clank Executor.default_clank)
      ~max_wall_cycles:5_000_000 ~machine:m ~supply ()
  in
  Alcotest.(check bool) "never completes" false outcome.Executor.completed;
  Alcotest.(check int) "no checkpoint ever commits" 0
    outcome.Executor.checkpoint_count;
  Alcotest.(check bool) "it is outages all the way down" true
    (outcome.Executor.outage_count > 0)

(* Every build runs the verifier, so its cost must stay linear in
   program size: one [Progress.analyze] allocates at most 1,000 minor
   words per instruction on every suite build, whose largest (Home@4
   anytime) is 1,613 instructions.  Sema rejects 2-bit Home, NetMotion
   and MatAdd. *)
let analyze_words_per_instruction_max = 1_000.0

let test_analyze_allocation_linear () =
  let builds =
    List.concat_map
      (fun (w : Workload.t) ->
        List.concat_map
          (fun bits ->
            List.map (fun precise -> (w, bits, precise)) [ false; true ])
          (if List.mem w.Workload.name [ "Conv2d"; "MatMul"; "Var"; "Dist" ]
           then [ 2; 4; 8 ]
           else [ 4; 8 ]))
      (Suite.extended Workload.Small)
  in
  List.iter
    (fun ((w : Workload.t), bits, precise) ->
      let b =
        Runner.build ~precise w { Workload.bits; provisioned = true }
      in
      let program = b.Runner.compiled.Compile.program in
      let cfg = Wn_analysis.Cfg.build program in
      (* As in test_fastpath: [Gc.minor_words] boxes its own result. *)
      let a = Gc.minor_words () in
      let c = Gc.minor_words () in
      let baseline = c -. a in
      let w0 = Gc.minor_words () in
      ignore (Progress.analyze cfg);
      let w1 = Gc.minor_words () in
      let per_instruction =
        (w1 -. w0 -. baseline) /. float_of_int (Array.length program)
      in
      if per_instruction > analyze_words_per_instruction_max then
        Alcotest.failf
          "%s@%d %s: Progress.analyze allocated %.0f minor words per \
           instruction (%d instructions), more than %.0f"
          w.Workload.name bits
          (if precise then "precise" else "anytime")
          per_instruction (Array.length program)
          analyze_words_per_instruction_max)
    builds

(* NVP state commits continuously, so its model charges per
   instruction; the soundness oracle above relies on it. *)
let test_nvp_per_instruction () =
  Alcotest.(check bool) "nvp commits per instruction" true
    (Progress.nvp ()).Progress.rt_per_instruction

let () =
  Alcotest.run "wn.progress"
    [
      ( "soundness",
        [
          Alcotest.test_case "static region bound dominates measured" `Quick
            test_static_dominates_dynamic;
          Alcotest.test_case "whole-program bound dominates always-on" `Quick
            test_total_dominates_always_on;
        ] );
      ( "stream",
        [
          Alcotest.test_case "event fold reproduces the outcome" `Quick
            test_event_fold_reproduces_outcome;
        ] );
      ( "doomed",
        [
          Alcotest.test_case "verifier flags the tiny capacitor" `Quick
            test_doomed_config_static;
          Alcotest.test_case "simulator confirms no progress" `Quick
            test_doomed_config_dynamic;
        ] );
      ( "models",
        [
          Alcotest.test_case "nvp commits per instruction" `Quick
            test_nvp_per_instruction;
        ] );
      ( "cost",
        [
          Alcotest.test_case "analyze words per instruction" `Quick
            test_analyze_allocation_linear;
        ] );
    ]
