(* Tests for wn.exec: the fixed-size domain pool behind the parallel
   experiment engine — order preservation, jobs > tasks, exception
   propagation, nesting, and bit-identical parallel-vs-sequential
   results on the fig10-style intermittent driver. *)

open Wn_workloads
module Pool = Wn_exec.Pool

let ints = Alcotest.(list int)

let test_map_matches_sequential () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check ints)
        (Printf.sprintf "order preserved at jobs=%d" jobs)
        expected
        (Pool.map ~jobs f xs))
    [ 1; 2; 8 ]

let test_edge_shapes () =
  Alcotest.(check ints) "empty list" [] (Pool.map ~jobs:4 succ []);
  Alcotest.(check ints) "singleton" [ 2 ] (Pool.map ~jobs:4 succ [ 1 ]);
  (* More workers than tasks: no task lost, no hang, order kept. *)
  Alcotest.(check ints) "jobs > tasks" [ 2; 3; 4 ] (Pool.map ~jobs:8 succ [ 1; 2; 3 ])

(* A zero or negative pool width is a caller bug: [map] must refuse it
   loudly (regression: jobs <= 0 used to degrade silently to the
   sequential path). *)
let test_map_rejects_nonpositive_jobs () =
  List.iter
    (fun jobs ->
      match Pool.map ~jobs succ [ 1; 2; 3 ] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "jobs=%d accepted" jobs)
    [ 0; -1; -8 ]

let test_pool_reuse () =
  let t = Pool.create ~jobs:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown t) @@ fun () ->
  Alcotest.(check int) "jobs" 3 (Pool.jobs t);
  Alcotest.(check ints) "first batch" [ 2; 4; 6 ] (Pool.run t (fun x -> 2 * x) [ 1; 2; 3 ]);
  Alcotest.(check ints) "second batch" [ 0; 1; 2; 3; 4 ] (Pool.run t Fun.id [ 0; 1; 2; 3; 4 ])

let test_worker_exception_propagates () =
  (* A raising worker must surface its exception in the caller without
     hanging the pool, and the pool must stay usable for a next map. *)
  match
    Pool.map ~jobs:4
      (fun x -> if x = 7 then failwith "boom" else x)
      (List.init 20 Fun.id)
  with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure msg ->
      Alcotest.(check string) "original exception" "boom" msg;
      Alcotest.(check ints) "pool machinery survives" [ 1; 2 ]
        (Pool.map ~jobs:4 succ [ 0; 1 ])

(* Regression: [default_jobs] used to clamp at 8, so a pool asked for
   more never had more.  Prove 10 requested workers really run 10
   concurrent tasks: each task blocks until all 10 have started, which
   can only happen if 10 executors are live at once. *)
let test_wide_pool_really_wide () =
  let jobs = 10 in
  let t = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown t) @@ fun () ->
  Alcotest.(check int) "requested width kept" jobs (Pool.jobs t);
  let started = Atomic.make 0 in
  let rendezvous _ =
    Atomic.incr started;
    (* Domains timeshare on few cores; yield while waiting. *)
    while Atomic.get started < jobs do
      Domain.cpu_relax ()
    done;
    Atomic.get started
  in
  let counts = Pool.run t rendezvous (List.init jobs Fun.id) in
  List.iter (fun c -> Alcotest.(check int) "all saw full house" jobs c) counts

let test_map_batches () =
  let t = Pool.create ~jobs:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown t) @@ fun () ->
  let xs = Array.init 10 Fun.id in
  let sums = Pool.map_batches t ~batch:4 (Array.fold_left ( + ) 0) xs in
  (* Partition is [0..3][4..7][8..9] whatever the pool width. *)
  Alcotest.(check ints) "batch sums in order" [ 6; 22; 17 ] sums;
  let shapes = Pool.map_batches t ~batch:4 Array.length xs in
  Alcotest.(check ints) "chunk shapes" [ 4; 4; 2 ] shapes;
  Alcotest.(check ints) "empty input" []
    (Pool.map_batches t ~batch:4 Array.length [||]);
  match Pool.map_batches t ~batch:0 Array.length xs with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "batch=0 accepted"

let test_map_batches_jobs_independent () =
  let xs = Array.init 37 (fun i -> i * i) in
  let run jobs =
    let t = Pool.create ~jobs () in
    Fun.protect ~finally:(fun () -> Pool.shutdown t) @@ fun () ->
    Pool.map_batches t ~batch:5 (fun c -> Array.to_list c) xs
  in
  let sequential = run 1 in
  List.iter
    (fun jobs ->
      if run jobs <> sequential then
        Alcotest.failf "batch partition changed at jobs=%d" jobs)
    [ 2; 8 ]

let test_nested_map () =
  (* A task that itself fans out (a parallel figure whose units fan
     out) must not deadlock; caller participation drains the queue. *)
  let t = Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown t) @@ fun () ->
  let result =
    Pool.run t
      (fun i -> List.fold_left ( + ) 0 (Pool.run t (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check ints) "nested totals" [ 36; 66; 96; 126 ] result

(* ---------------- determinism of the experiment engine ------------- *)

let scale = Workload.Small

let test_intermittent_bit_identical () =
  (* The fig10 driver: per-unit partial results concatenated in unit
     order must make the parallel result bit-identical to sequential. *)
  let w = Suite.find scale "Var" in
  let setup =
    { Wn_core.Intermittent.default_setup with n_traces = 3; samples_per_run = 2 }
  in
  let run jobs =
    Wn_core.Intermittent.run ~jobs ~setup ~system:Wn_core.Intermittent.Clank
      ~bits:4 w
  in
  let sequential = run 1 in
  List.iter
    (fun jobs ->
      if run jobs <> sequential then
        Alcotest.failf "jobs=%d diverged from the sequential result" jobs)
    [ 2; 8 ]

let test_curves_bit_identical () =
  let ws = [ Suite.find scale "MatAdd"; Suite.find scale "MatMul" ] in
  let suite jobs =
    Wn_core.Curves.suite ~jobs ~seed:5 ~bits_list:[ 4; 8 ] ws
  in
  let sequential = suite 1 in
  List.iter
    (fun jobs ->
      if suite jobs <> sequential then
        Alcotest.failf "curve suite at jobs=%d diverged" jobs)
    [ 2; 8 ]

let test_figure_output_bit_identical () =
  (* Whole-figure rendering (the CSV `wn figure` emits on stdout) must
     be byte-identical across jobs values. *)
  let render jobs =
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    Wn_core.Figures.fig15 ppf { Wn_core.Figures.default_options with jobs };
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let sequential = render 1 in
  Alcotest.(check string) "fig15 at jobs=2" sequential (render 2);
  Alcotest.(check string) "fig15 at jobs=8" sequential (render 8)

let () =
  Alcotest.run "wn.exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
          Alcotest.test_case "edge shapes" `Quick test_edge_shapes;
          Alcotest.test_case "nonpositive jobs rejected" `Quick
            test_map_rejects_nonpositive_jobs;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "worker exception" `Quick test_worker_exception_propagates;
          Alcotest.test_case "wide pool" `Quick test_wide_pool_really_wide;
          Alcotest.test_case "map_batches" `Quick test_map_batches;
          Alcotest.test_case "map_batches jobs independent" `Quick
            test_map_batches_jobs_independent;
          Alcotest.test_case "nested map" `Quick test_nested_map;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "intermittent driver" `Slow test_intermittent_bit_identical;
          Alcotest.test_case "curve suite" `Slow test_curves_bit_identical;
          Alcotest.test_case "figure output" `Slow test_figure_output_bit_identical;
        ] );
    ]
