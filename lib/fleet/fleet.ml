open Wn_workloads
module Intermittent = Wn_core.Intermittent
module Runner = Wn_core.Runner
module Pool = Wn_exec.Pool

type trace_class = Rf | Square | Constant

let trace_class_name = function
  | Rf -> "rf"
  | Square -> "square"
  | Constant -> "constant"

let trace_class_of_string = function
  | "rf" -> Some Rf
  | "square" -> Some Square
  | "constant" -> Some Constant
  | _ -> None

type descriptor = {
  devices : int;
  benchmarks : string list;
  systems : Intermittent.system list;
  bits_list : int list;
  scale : Workload.scale;
  samples_per_device : int;
  trace_class : trace_class;
  trace_duration_s : float;
  seed : int;
  capacitance : float;
  cycle_energy : float;
  batch : int;
  sketch_capacity : int;
  engine : Wn_runtime.Executor.engine;
}

(* The 4 s trace bounds the simulated wall clock of a device that
   never completes its task; completing devices stop at commit, so the
   cap only matters for hopeless configurations. *)
let default =
  {
    devices = 1000;
    benchmarks = [ "MatAdd" ];
    systems = [ Intermittent.Clank ];
    bits_list = [ 8 ];
    scale = Workload.Small;
    samples_per_device = 1;
    trace_class = Rf;
    trace_duration_s = 4.0;
    seed = 42;
    capacitance = 10e-6;
    cycle_energy = Wn_power.Supply.default_cycle_energy;
    batch = 0;
    sketch_capacity = 256;
    engine = Wn_runtime.Executor.Block;
  }

type unit_spec = {
  device : int;
  bench : string;
  system : Intermittent.system;
  bits : int;
  trace_seed : int;
  input_seed : int;
}

let validate d =
  if d.devices < 1 then invalid_arg "Fleet: devices must be >= 1";
  if d.samples_per_device < 1 then
    invalid_arg "Fleet: samples_per_device must be >= 1";
  if d.batch < 0 then invalid_arg "Fleet: batch must be >= 0";
  if d.sketch_capacity < 8 then
    invalid_arg "Fleet: sketch_capacity must be >= 8";
  (match Wn_power.Capacitor.create ~capacitance:d.capacitance () with
  | _ -> ()
  | exception Invalid_argument _ ->
      invalid_arg "Fleet: capacitance out of range");
  if d.benchmarks = [] || d.systems = [] || d.bits_list = [] then
    invalid_arg "Fleet: empty configuration axis"

(* The configuration cross product, in (benchmark, system, bits) axis
   order — the order config labels are reported in. *)
let cross d =
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun system -> List.map (fun bits -> (bench, system, bits)) d.bits_list)
        d.systems)
    d.benchmarks

let expand d =
  validate d;
  let configs = Array.of_list (cross d) in
  let n = Array.length configs in
  Array.init d.devices (fun device ->
      let bench, system, bits = configs.(device mod n) in
      {
        device;
        bench;
        system;
        bits;
        trace_seed = d.seed + (2 * device);
        input_seed = d.seed + (2 * device) + 1;
      })

(* Aggregate count stays bounded (and jobs-independent): auto batching
   targets ~256 batches however large the fleet, so the driver holds
   O(256 sketches), never O(devices) partials. *)
let batch_size d =
  if d.batch > 0 then d.batch else max 1 ((d.devices + 255) / 256)

type report = {
  descriptor : descriptor;
  configs : string list;
  units : int;
  tasks : int;
  completed : int;
  skimmed : int;
  quality : Agg.summary;
  energy : Agg.summary;
  outages : Agg.summary;
  ontime : Agg.summary;
}

let config_label (bench, system, bits) =
  Printf.sprintf "%s@%d/%s" bench bits (Intermittent.system_name system)

(* Per-batch streaming accumulator: counters plus one bounded metric
   per reported distribution.  Batches run on pool domains; the driver
   merges them in batch order. *)
type acc = {
  mutable a_tasks : int;
  mutable a_completed : int;
  mutable a_skimmed : int;
  a_quality : Agg.metric;
  a_energy : Agg.metric;
  a_outages : Agg.metric;
  a_ontime : Agg.metric;
}

let acc_create d =
  let capacity = d.sketch_capacity in
  {
    a_tasks = 0;
    a_completed = 0;
    a_skimmed = 0;
    a_quality = Agg.metric ~capacity ();
    a_energy = Agg.metric ~capacity ();
    a_outages = Agg.metric ~capacity ();
    a_ontime = Agg.metric ~capacity ();
  }

let acc_merge a b =
  {
    a_tasks = a.a_tasks + b.a_tasks;
    a_completed = a.a_completed + b.a_completed;
    a_skimmed = a.a_skimmed + b.a_skimmed;
    a_quality = Agg.merge a.a_quality b.a_quality;
    a_energy = Agg.merge a.a_energy b.a_energy;
    a_outages = Agg.merge a.a_outages b.a_outages;
    a_ontime = Agg.merge a.a_ontime b.a_ontime;
  }

let make_trace d spec =
  match d.trace_class with
  | Rf -> Wn_power.Trace.rf_burst ~seed:spec.trace_seed ~duration_s:d.trace_duration_s ()
  | Square ->
      Wn_power.Trace.square ~on_ms:2 ~off_ms:8 ~power:2e-3
        ~duration_s:d.trace_duration_s
  | Constant ->
      Wn_power.Trace.constant ~power:2e-3 ~duration_s:d.trace_duration_s

(* One device: a fresh trace, capacitor, supply and machine around the
   shared immutable build; its task stream folds into the batch
   accumulator.  Quality is only defined for committed outputs, so
   incomplete tasks count toward tasks/outages/on-time but not NRMSE. *)
let run_device d builds acc spec =
  let w, build, golden_policy = builds spec in
  let rng = Wn_util.Rng.create spec.input_seed in
  let samples =
    List.init d.samples_per_device (fun _ -> w.Workload.fresh_inputs rng)
  in
  let measures =
    Intermittent.run_stream
      ~capacitor:(Wn_power.Capacitor.create ~capacitance:d.capacitance ())
      ~engine:d.engine ~cycle_energy:d.cycle_energy build golden_policy
      (make_trace d spec) samples
  in
  List.iter2
    (fun inputs (m : Intermittent.task_measure) ->
      acc.a_tasks <- acc.a_tasks + 1;
      if m.Intermittent.ok then begin
        acc.a_completed <- acc.a_completed + 1;
        if m.Intermittent.skimmed then acc.a_skimmed <- acc.a_skimmed + 1;
        let golden = w.Workload.golden inputs in
        Agg.observe acc.a_quality
          (Runner.nrmse_pct ~reference:golden m.Intermittent.out)
      end;
      Agg.observe acc.a_energy (m.Intermittent.energy_j *. 1e6);
      Agg.observe acc.a_outages (float_of_int m.Intermittent.outages);
      Agg.observe acc.a_ontime
        (if m.Intermittent.wall = 0 then 0.0
         else
           100.0
           *. float_of_int (m.Intermittent.active + m.Intermittent.overhead)
           /. float_of_int m.Intermittent.wall))
    samples measures

let run ?(jobs = 1) d =
  if jobs < 1 then invalid_arg "Fleet.run: jobs must be >= 1";
  let specs = expand d in
  let configs = cross d in
  (* One compiled build per (benchmark, bits): compiled once, shared
     immutable across every pool domain. *)
  let builds =
    List.concat_map
      (fun bench ->
        List.map
          (fun bits ->
            let w = Suite.find d.scale bench in
            let cfg = { Workload.bits; provisioned = true } in
            ((bench, bits), (w, Runner.build w cfg)))
          d.bits_list)
      d.benchmarks
  in
  let lookup spec =
    let w, build = List.assoc (spec.bench, spec.bits) builds in
    (w, build, Intermittent.policy spec.system)
  in
  let batch = batch_size d in
  let n_batches = (Array.length specs + batch - 1) / batch in
  let pool = Pool.create ~jobs:(max 1 (min jobs n_batches)) () in
  let accs =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.map_batches pool ~batch
          (fun chunk ->
            let acc = acc_create d in
            Array.iter (run_device d lookup acc) chunk;
            acc)
          specs)
  in
  let total =
    match accs with
    | [] -> acc_create d
    | first :: rest -> List.fold_left acc_merge first rest
  in
  {
    descriptor = d;
    configs = List.map config_label configs;
    units = Array.length specs;
    tasks = total.a_tasks;
    completed = total.a_completed;
    skimmed = total.a_skimmed;
    quality = Agg.summarize total.a_quality;
    energy = Agg.summarize total.a_energy;
    outages = Agg.summarize total.a_outages;
    ontime = Agg.summarize total.a_ontime;
  }

let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let pp ppf r =
  let d = r.descriptor in
  Format.fprintf ppf "fleet: %d devices x %d task(s) = %d tasks@\n" r.units
    d.samples_per_device r.tasks;
  Format.fprintf ppf "  configs (round-robin): %s@\n"
    (String.concat " " r.configs);
  Format.fprintf ppf
    "  trace %s seed %d, cap %.1f uF, batch %d, sketch k=%d@\n"
    (trace_class_name d.trace_class)
    d.seed (d.capacitance *. 1e6) (batch_size d) d.sketch_capacity;
  Format.fprintf ppf "  completed %d/%d (%.1f%%), %d via skim (%.1f%%)@\n"
    r.completed r.tasks (pct r.completed r.tasks) r.skimmed
    (pct r.skimmed r.tasks);
  Format.fprintf ppf "  quality NRMSE%% %a@\n" Agg.pp_summary r.quality;
  Format.fprintf ppf "  energy uJ/task %a@\n" Agg.pp_summary r.energy;
  Format.fprintf ppf "  outages/task   %a@\n" Agg.pp_summary r.outages;
  Format.fprintf ppf "  on-time %%      %a@\n" Agg.pp_summary r.ontime

let json_summary name (s : Agg.summary) =
  let f v = if Float.is_nan v then "null" else Printf.sprintf "%.6f" v in
  Printf.sprintf
    "\"%s\": {\"n\": %d, \"mean\": %s, \"stddev\": %s, \"min\": %s, \"p50\": \
     %s, \"p90\": %s, \"p99\": %s, \"max\": %s, \"rank_err\": %d}"
    name s.Agg.n (f s.Agg.mean) (f s.Agg.stddev) (f s.Agg.min) (f s.Agg.p50)
    (f s.Agg.p90) (f s.Agg.p99) (f s.Agg.max) s.Agg.rank_err

let to_json r =
  let d = r.descriptor in
  String.concat ""
    [
      "{\n";
      "  \"schema\": \"wn-fleet/1\",\n";
      Printf.sprintf "  \"devices\": %d,\n" r.units;
      Printf.sprintf "  \"tasks\": %d,\n" r.tasks;
      Printf.sprintf "  \"completed\": %d,\n" r.completed;
      Printf.sprintf "  \"skimmed\": %d,\n" r.skimmed;
      Printf.sprintf "  \"configs\": [%s],\n"
        (String.concat ", "
           (List.map (fun c -> Printf.sprintf "%S" c) r.configs));
      Printf.sprintf "  \"trace\": %S,\n" (trace_class_name d.trace_class);
      Printf.sprintf "  \"seed\": %d,\n" d.seed;
      Printf.sprintf "  \"batch\": %d,\n" (batch_size d);
      Printf.sprintf "  \"sketch_capacity\": %d,\n" d.sketch_capacity;
      "  " ^ json_summary "quality_nrmse_pct" r.quality ^ ",\n";
      "  " ^ json_summary "energy_uj_per_task" r.energy ^ ",\n";
      "  " ^ json_summary "outages_per_task" r.outages ^ ",\n";
      "  " ^ json_summary "ontime_pct" r.ontime ^ "\n";
      "}\n";
    ]
