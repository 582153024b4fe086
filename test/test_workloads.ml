(* Tests for wn.workloads: every Table I kernel's precise build must
   match its golden model bit for bit, and every anytime build must
   converge to the same precise result once all subword passes have
   run — the paper's central guarantee. *)

open Wn_workloads

let scale = Workload.Small

let run_build b inputs =
  let machine = Wn_core.Runner.machine b in
  Wn_core.Runner.load_sample b machine inputs;
  let o = Wn_core.Runner.run_always_on machine in
  Alcotest.(check bool) "completed" true o.Wn_runtime.Executor.completed;
  (Wn_core.Runner.output b machine, o)

let precise_matches_golden (w : Workload.t) =
  let rng = Wn_util.Rng.create 101 in
  let inputs = w.Workload.fresh_inputs rng in
  let b =
    Wn_core.Runner.build ~precise:true w { Workload.bits = 8; provisioned = true }
  in
  let out, _ = run_build b inputs in
  if out <> w.Workload.golden inputs then
    Alcotest.failf "%s: precise output diverges from golden model" w.Workload.name

let anytime_converges (w : Workload.t) bits =
  let rng = Wn_util.Rng.create 202 in
  let inputs = w.Workload.fresh_inputs rng in
  let b = Wn_core.Runner.build w { Workload.bits; provisioned = true } in
  let out, o = run_build b inputs in
  if out <> w.Workload.golden inputs then
    Alcotest.failf "%s: %d-bit anytime build does not reach the precise result"
      w.Workload.name bits;
  if o.Wn_runtime.Executor.first_skim_active = None then
    Alcotest.failf "%s: no skim point latched" w.Workload.name

let anytime_costs_more_than_precise (w : Workload.t) =
  (* The iterative refinement's overhead (Section V-A): the anytime
     build takes longer than the baseline to the *final* answer. *)
  let rng = Wn_util.Rng.create 303 in
  let inputs = w.Workload.fresh_inputs rng in
  let cfg = { Workload.bits = 8; provisioned = true } in
  let pb = Wn_core.Runner.build ~precise:true w cfg in
  let ab = Wn_core.Runner.build w cfg in
  let _, po = run_build pb inputs in
  let _, ao = run_build ab inputs in
  let pc = po.Wn_runtime.Executor.active_cycles in
  let ac = ao.Wn_runtime.Executor.active_cycles in
  if ac <= pc then
    Alcotest.failf "%s: anytime (%d) not slower than precise (%d) to finish"
      w.Workload.name ac pc

let earliest_improves_with_refinement (w : Workload.t) =
  (* 4-bit earliest output must be available sooner but rougher than
     8-bit — Section V-A's granularity trade-off. *)
  let e8 = Wn_core.Earliest.earliest ~seed:404 ~bits:8 w in
  let e4 = Wn_core.Earliest.earliest ~seed:404 ~bits:4 w in
  if e4.Wn_core.Earliest.active_cycles >= e8.Wn_core.Earliest.active_cycles then
    Alcotest.failf "%s: 4-bit earliest not earlier than 8-bit" w.Workload.name;
  if e4.Wn_core.Earliest.nrmse < e8.Wn_core.Earliest.nrmse -. 1e-9 then
    Alcotest.failf "%s: 4-bit earliest more accurate than 8-bit (%f vs %f)"
      w.Workload.name e4.Wn_core.Earliest.nrmse e8.Wn_core.Earliest.nrmse

let test_table1_shape () =
  let names = List.map (fun (w : Workload.t) -> w.Workload.name) (Suite.all scale) in
  Alcotest.(check (list string)) "suite order" Suite.names names;
  List.iter
    (fun name ->
      let w = Suite.find scale name in
      Alcotest.(check string) "find is case-insensitive" w.Workload.name
        (Suite.find scale (String.uppercase_ascii name)).Workload.name)
    Suite.names

let test_input_bounds () =
  (* Generator invariants that keep 32-bit accumulators from wrapping:
     checked across several seeds. *)
  for seed = 1 to 5 do
    let rng = Wn_util.Rng.create seed in
    (* Var: |reading| <= 6000 and windows re-centred. *)
    let v = Suite.find scale "Var" in
    let readings = List.assoc "readings" (v.Workload.fresh_inputs rng) in
    Array.iter
      (fun p ->
        let x = Wn_util.Subword.to_signed ~bits:16 p in
        if abs x > 6000 then Alcotest.failf "Var reading %d out of bounds" x)
      readings;
    (* Home: window sums below 2^31. *)
    let h = Suite.find scale "Home" in
    List.iter
      (fun (_, a) ->
        let worst = Array.fold_left max 0 a in
        if worst * 64 >= 1 lsl 31 then Alcotest.fail "Home window sum can wrap")
      (h.Workload.fresh_inputs rng);
    (* NetMotion: window sums below 2^31 in magnitude. *)
    let n = Suite.find scale "NetMotion" in
    List.iter
      (fun (_, a) ->
        Array.iter
          (fun p ->
            let x = Wn_util.Subword.to_signed ~bits:32 p in
            if abs x * 64 >= 1 lsl 31 then
              Alcotest.fail "NetMotion window sum can wrap")
          a)
      (n.Workload.fresh_inputs rng)
  done

(* ---------------- Image helpers ---------------- *)

let test_gaussian_filter () =
  List.iter
    (fun k ->
      let f = Image.gaussian_filter ~k ~weight_sum:256 in
      Alcotest.(check int) "sums to 256" 256 (Array.fold_left ( + ) 0 f);
      Array.iter (fun w -> if w < 0 then Alcotest.fail "negative tap") f;
      let centre = f.((k / 2 * k) + (k / 2)) in
      Array.iter (fun w -> if w > centre then Alcotest.fail "centre not max") f)
    [ 3; 5; 9 ]

let test_image_padding () =
  let img = [| 1; 2; 3; 4 |] in
  let padded = Image.pad_image img ~width:2 ~height:2 ~pad:1 ~stride:8 in
  Alcotest.(check int) "size" 32 (Array.length padded);
  Alcotest.(check int) "origin shifted" 1 padded.((1 * 8) + 1);
  Alcotest.(check int) "last pixel" 4 padded.((2 * 8) + 2);
  Alcotest.(check int) "border zero" 0 padded.(0)

let test_pgm_writer () =
  let path = Filename.temp_file "wn_test" ".pgm" in
  Image.write_pgm ~path ~width:4 ~height:2
    (Array.init 8 (fun i -> float_of_int i));
  let ic = open_in_bin path in
  let header = really_input_string ic 2 in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "P5 magic" "P5" header

(* ---------------- Glucose ---------------- *)

let test_glucose_series () =
  let rng = Wn_util.Rng.create 77 in
  let series = Glucose.clinical rng in
  Alcotest.(check int) "41 readings over 10 hours" 41 (Array.length series);
  let dips = Glucose.critical_indices series in
  Alcotest.(check int) "exactly two critical events" 2 (List.length dips);
  List.iter
    (fun i ->
      let m = series.(i).Glucose.minutes in
      if abs (m - 222) > 15 && abs (m - 462) > 15 then
        Alcotest.failf "dip at unexpected minute %d" m)
    dips;
  Alcotest.(check string) "clock formatting" "14:33" (Glucose.clock_of_minutes 225)

let test_glucose_quantizer () =
  (* More kept bits: smaller mean error; 8 bits is (nearly) exact. *)
  let values = List.init 40 (fun i -> 30.0 +. (float_of_int i *. 9.0)) in
  let mean_err bits =
    List.fold_left
      (fun acc v -> acc +. abs_float (Glucose.quantize_msb ~bits v -. v))
      0.0 values
    /. 40.0
  in
  if mean_err 2 < mean_err 4 then Alcotest.fail "2-bit beats 4-bit on average";
  if mean_err 4 < mean_err 8 then Alcotest.fail "4-bit beats 8-bit on average";
  if mean_err 8 > 2.0 then Alcotest.fail "8-bit quantisation too lossy";
  (* quantised values never exceed the original (floor quantiser) *)
  List.iter
    (fun v ->
      if Glucose.quantize_msb ~bits:4 v > v +. 1e-6 then
        Alcotest.fail "floor quantiser went up")
    values

(* ---------------- per-workload suites ---------------- *)

let per_workload (w : Workload.t) =
  [
    Alcotest.test_case "precise = golden" `Quick (fun () ->
        precise_matches_golden w);
    Alcotest.test_case "anytime 8-bit converges" `Quick (fun () ->
        anytime_converges w 8);
    Alcotest.test_case "anytime 4-bit converges" `Quick (fun () ->
        anytime_converges w 4);
    Alcotest.test_case "refinement overhead" `Quick (fun () ->
        anytime_costs_more_than_precise w);
    Alcotest.test_case "granularity trade-off" `Quick (fun () ->
        earliest_improves_with_refinement w);
  ]

let () =
  Alcotest.run "wn.workloads"
    ([
       ( "suite",
         [
           Alcotest.test_case "table 1 shape" `Quick test_table1_shape;
           Alcotest.test_case "input bounds" `Quick test_input_bounds;
         ] );
       ( "image",
         [
           Alcotest.test_case "gaussian filter" `Quick test_gaussian_filter;
           Alcotest.test_case "padding" `Quick test_image_padding;
           Alcotest.test_case "pgm writer" `Quick test_pgm_writer;
         ] );
       ( "glucose",
         [
           Alcotest.test_case "clinical series" `Quick test_glucose_series;
           Alcotest.test_case "quantizer" `Quick test_glucose_quantizer;
         ] );
     ]
    @ List.map
        (fun (w : Workload.t) -> (String.lowercase_ascii w.Workload.name, per_workload w))
        (Suite.extended scale))
