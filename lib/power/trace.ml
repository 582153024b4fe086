type t = { samples : float array }

let sample_period_s = 0.001

(* Validates and takes ownership of [samples]: only for arrays no
   caller can reach afterwards. *)
let checked samples =
  if Array.length samples = 0 then invalid_arg "Trace.of_samples: empty";
  Array.iter
    (fun p ->
      if not (p >= 0.0 && Float.is_finite p) then
        invalid_arg "Trace.of_samples: negative power")
    samples;
  { samples }

let of_samples samples = checked (Array.copy samples)

let length t = Array.length t.samples

let duration_s t = float_of_int (length t) *. sample_period_s

let power_at_tick t i =
  let n = Array.length t.samples in
  t.samples.(((i mod n) + n) mod n)

let mean_power t = Wn_util.Stats.mean t.samples

let duty_cycle t =
  let hot = Array.fold_left (fun n p -> if p > 1e-6 then n + 1 else n) 0 t.samples in
  float_of_int hot /. float_of_int (Array.length t.samples)

let ticks_of_duration duration_s =
  let n = int_of_float (Float.round (duration_s /. sample_period_s)) in
  if n <= 0 then invalid_arg "Trace: duration too short" else n

let constant ~power ~duration_s =
  checked (Array.make (ticks_of_duration duration_s) power)

let square ~on_ms ~off_ms ~power ~duration_s =
  if on_ms <= 0 || off_ms < 0 then invalid_arg "Trace.square";
  let n = ticks_of_duration duration_s in
  let period = on_ms + off_ms in
  checked (Array.init n (fun i -> if i mod period < on_ms then power else 0.0))

let rf_burst ?(burst_mean_ms = 3.0) ?(quiet_mean_ms = 40.0) ~seed ~duration_s
    () =
  if burst_mean_ms <= 0.0 || quiet_mean_ms <= 0.0 then
    invalid_arg "Trace.rf_burst";
  let burst_power = 1.5e-3 and power_jitter = 0.3 in
  let rng = Wn_util.Rng.create seed in
  let n = ticks_of_duration duration_s in
  let samples = Array.make n 0.0 in
  (* Geometric dwell times: per-tick probability of leaving each state. *)
  let p_leave_burst = 1.0 /. burst_mean_ms in
  let p_leave_quiet = 1.0 /. quiet_mean_ms in
  let in_burst = ref false in
  let level = ref 0.0 in
  let fresh_level () =
    Float.max 1e-5
      (burst_power *. (1.0 +. Wn_util.Rng.gaussian rng ~mu:0.0 ~sigma:power_jitter))
  in
  for i = 0 to n - 1 do
    let p_leave = if !in_burst then p_leave_burst else p_leave_quiet in
    if Wn_util.Rng.float rng 1.0 < p_leave then begin
      in_burst := not !in_burst;
      if !in_burst then level := fresh_level ()
    end;
    samples.(i) <- (if !in_burst then !level else 0.0)
  done;
  checked samples

let paper_suite ?(count = 9) ~seed ~duration_s () =
  if count <= 0 then invalid_arg "Trace.paper_suite";
  List.init count (fun i ->
      (* Vary burst statistics mildly across the suite so the nine
         traces exercise different outage frequencies, as the paper's
         distinct captures do. *)
      let burst_mean_ms = 2.0 +. (float_of_int (i mod 3) *. 1.5) in
      let quiet_mean_ms = 30.0 +. (float_of_int (i mod 4) *. 10.0) in
      rf_burst ~burst_mean_ms ~quiet_mean_ms ~seed:(seed + (1009 * (i + 1)))
        ~duration_s ())
