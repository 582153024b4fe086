(* The Bechamel microbenchmark suite: one test per table/figure of the
   paper, timing the simulation kernel that dominates that experiment.
   The figures themselves come from `wn figure`; the end-to-end timings
   from perfbench/.

   Usage:
     dune exec bench/main.exe                    # writes BENCH_machine.json
     dune exec bench/main.exe -- --bench-json F  # where to persist estimates

   The estimates are serialized to BENCH_machine.json (or --bench-json
   PATH); CI's block-engine speedup gate reads the fig9 rows. *)

open Wn_workloads

(* One Test.make per table/figure: the simulation kernel that dominates
   that experiment's cost, so regressions in the substrate show up next
   to the experiment they would slow down. *)
let micro_tests () =
  let open Bechamel in
  (* table1 / fig9: raw simulator stepping on the Var kernel. *)
  let var = Suite.find Workload.Small "Var" in
  let cfg8 = { Workload.bits = 8; provisioned = true } in
  let build = Wn_core.Runner.build var cfg8 in
  let rng = Wn_util.Rng.create 1 in
  let inputs = var.Workload.fresh_inputs rng in
  let machine = Wn_core.Runner.machine build in
  let step_machine () =
    Wn_core.Runner.load_sample build machine inputs;
    for _ = 1 to 1000 do
      Wn_machine.Machine.step_fast machine
    done
  in
  (* Same workload through the block engine: fused runs retire several
     instructions per dispatch, so the loop counts retirement instead of
     dispatches (it may overshoot by at most one block's tail). *)
  let step_machine_block () =
    Wn_core.Runner.load_sample build machine inputs;
    let stop = Wn_machine.Machine.instructions_retired machine + 1000 in
    while Wn_machine.Machine.instructions_retired machine < stop do
      Wn_machine.Machine.step_block machine
    done
  in
  (* fig10/fig11: a full intermittent task on a bursty supply. *)
  let trace =
    Wn_power.Trace.square ~on_ms:3 ~off_ms:30 ~power:2e-3 ~duration_s:4.0
  in
  let intermittent_task () =
    let supply =
      Wn_power.Supply.create ~trace ~capacitor:(Wn_power.Capacitor.create ()) ()
    in
    Wn_core.Runner.load_sample build machine inputs;
    ignore
      (Wn_runtime.Executor.run
         ~policy:(Wn_runtime.Executor.Clank Wn_runtime.Executor.default_clank)
         ~machine ~supply ())
  in
  (* fig10: the Clank runtime with its shadow-map read/write tracking,
     isolated from outage physics by an always-on supply — measures the
     per-instruction tracking overhead alone. *)
  let clank_shadowmap () =
    Wn_core.Runner.load_sample build machine inputs;
    ignore
      (Wn_runtime.Executor.run
         ~policy:(Wn_runtime.Executor.Clank Wn_runtime.Executor.default_clank)
         ~machine ~supply:(Wn_power.Supply.always_on ()) ())
  in
  (* fig13: the multiply front end with and without memoization. *)
  let memo = Wn_machine.Memo.create ~entries:16 () in
  let memo_lookup () =
    for a = 0 to 99 do
      match Wn_machine.Memo.lookup memo ~a ~b:17 with
      | Some _ -> ()
      | None -> Wn_machine.Memo.insert memo ~a ~b:17 ~result:(a * 17)
    done
  in
  (* table1 (code size): compile the Var kernel end to end. *)
  let compile_kernel () =
    ignore
      (Wn_compiler.Compile.compile_source ~options:Wn_compiler.Compile.anytime
         (var.Workload.source cfg8))
  in
  (* fig14: subword-major encode of a MatAdd-sized input. *)
  let layout =
    Wn_compiler.Layout.subword_major ~elem_bits:32 ~signed:false ~bits:8
      ~lane_bits:16 ~count:1024 ()
  in
  let data = Array.init 1024 (fun i -> i * 1_048_573) in
  let layout_encode () = ignore (Wn_compiler.Layout.encode layout data) in
  (* isa codec behind every build. *)
  let program = build.Wn_core.Runner.compiled.Wn_compiler.Compile.program in
  let codec () =
    match
      Wn_isa.Encoding.decode_program (Wn_isa.Encoding.encode_program program)
    with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  [
    Test.make ~name:"table1:compile_var_kernel" (Staged.stage compile_kernel);
    Test.make ~name:"fig9:simulate_1k_instructions[engine=fast]"
      (Staged.stage step_machine);
    Test.make ~name:"fig9:simulate_1k_instructions[engine=block]"
      (Staged.stage step_machine_block);
    Test.make ~name:"fig10:intermittent_clank_task[engine=block]"
      (Staged.stage intermittent_task);
    Test.make ~name:"fig10:executor_clank_shadowmap[engine=block]"
      (Staged.stage clank_shadowmap);
    Test.make ~name:"fig13:memo_front_end" (Staged.stage memo_lookup);
    Test.make ~name:"fig14:subword_major_encode" (Staged.stage layout_encode);
    Test.make ~name:"isa:codec_roundtrip" (Staged.stage codec);
  ]

(* Persist estimates as name -> ns/run, so each commit leaves a
   machine-readable point on the repo's performance trajectory (see
   EXPERIMENTS.md).  Hand-rolled JSON: names contain no characters
   needing escapes beyond what %S provides. *)
let write_bench_json path rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"wn-bench/1\",\n";
  Printf.fprintf oc "  \"unit\": \"ns/run\",\n";
  Printf.fprintf oc "  \"results\": {";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "%s\n    %S: %.1f" (if i = 0 then "" else ",") name ns)
    rows;
  Printf.fprintf oc "\n  }\n}\n";
  close_out oc

let run_micro ~json_path =
  let open Bechamel in
  let open Toolkit in
  print_endline "=== Bechamel microbenchmarks (ns per run) ===";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let tests = Test.make_grouped ~name:"wn" (micro_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let estimates =
    List.filter_map
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Some (name, t)
        | _ -> None)
      rows
    |> List.sort compare
  in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> Printf.printf "%-40s %12.0f ns/run\n" name t
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    (List.sort compare rows);
  write_bench_json json_path estimates;
  Printf.eprintf "[bechamel estimates written to %s]\n%!" json_path

let () =
  let json_path =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> "BENCH_machine.json"
    | [ "--bench-json"; path ] -> path
    | _ ->
        prerr_endline "usage: main.exe [--bench-json PATH]";
        exit 2
  in
  run_micro ~json_path
