(* Tests for wn.power: traces, the capacitor and the supply. *)

open Wn_power

let test_trace_basics () =
  let t = Trace.constant ~power:1e-3 ~duration_s:0.1 in
  Alcotest.(check int) "100 ticks" 100 (Trace.length t);
  Alcotest.(check (float 1e-9)) "duration" 0.1 (Trace.duration_s t);
  Alcotest.(check (float 1e-9)) "sample" 1e-3 (Trace.power_at_tick t 5);
  Alcotest.(check (float 1e-9)) "wraps" 1e-3 (Trace.power_at_tick t 105);
  Alcotest.(check (float 1e-9)) "mean" 1e-3 (Trace.mean_power t);
  Alcotest.(check (float 1e-9)) "duty" 1.0 (Trace.duty_cycle t)

let test_trace_square () =
  let t = Trace.square ~on_ms:2 ~off_ms:8 ~power:1e-3 ~duration_s:0.1 in
  Alcotest.(check (float 1e-9)) "on" 1e-3 (Trace.power_at_tick t 1);
  Alcotest.(check (float 1e-9)) "off" 0.0 (Trace.power_at_tick t 5);
  Alcotest.(check (float 1e-6)) "duty 20%" 0.2 (Trace.duty_cycle t)

let test_trace_rf_burst () =
  let t = Trace.rf_burst ~seed:1 ~duration_s:10.0 () in
  let duty = Trace.duty_cycle t in
  if duty < 0.01 || duty > 0.4 then
    Alcotest.failf "implausible RF duty cycle %.3f" duty;
  (* deterministic for a seed *)
  let t' = Trace.rf_burst ~seed:1 ~duration_s:10.0 () in
  Alcotest.(check (float 0.0)) "deterministic" (Trace.mean_power t)
    (Trace.mean_power t');
  let t2 = Trace.rf_burst ~seed:2 ~duration_s:10.0 () in
  if Trace.mean_power t = Trace.mean_power t2 then
    Alcotest.fail "different seeds produced identical traces"

let test_paper_suite () =
  let traces = Trace.paper_suite ~seed:9 ~duration_s:2.0 () in
  Alcotest.(check int) "nine traces" 9 (List.length traces);
  List.iter
    (fun t -> if Trace.mean_power t <= 0.0 then Alcotest.fail "dead trace")
    traces

let test_capacitor_hysteresis () =
  let c = Capacitor.create () in
  Alcotest.(check bool) "starts on" true (Capacitor.is_on c);
  Alcotest.(check (float 1e-6)) "starts at v_max" 2.5 (Capacitor.voltage c);
  (* Drain just past brown-out. *)
  Capacitor.drain c (Capacitor.usable_energy c +. 1e-9);
  Alcotest.(check bool) "browned out" false (Capacitor.is_on c);
  (* A little harvest is not enough: hysteresis waits for v_on. *)
  Capacitor.harvest c 1e-7;
  Alcotest.(check bool) "still off below v_on" false (Capacitor.is_on c);
  Capacitor.harvest c 1.0;
  Alcotest.(check bool) "back on" true (Capacitor.is_on c);
  Alcotest.(check (float 1e-6)) "clamped at v_max" 2.5 (Capacitor.voltage c)

let test_capacitor_energy () =
  let c = Capacitor.create () in
  (* ½·10µF·(2.5² − 1.8²) ≈ 15.05 µJ of usable charge. *)
  Alcotest.(check (float 1e-7)) "usable energy" 1.505e-5 (Capacitor.usable_energy c);
  Alcotest.(check (float 1e-7)) "burst budget" 1.505e-5 (Capacitor.burst_budget c);
  Capacitor.set_empty c;
  Alcotest.(check (float 1e-9)) "empty has none" 0.0 (Capacitor.usable_energy c);
  Capacitor.set_full c;
  Alcotest.(check bool) "full is on" true (Capacitor.is_on c);
  Alcotest.check_raises "negative drain" (Invalid_argument "Capacitor.drain")
    (fun () -> Capacitor.drain c (-1.0))

(* Including NaN and infinities, which each used to leave the device on
   for good. *)
let test_capacitor_bad_config () =
  List.iter
    (fun (what, make) ->
      Alcotest.check_raises what (Invalid_argument "Capacitor.create")
        (fun () -> ignore (make ())))
    [
      ("v_off above v_on", fun () -> Capacitor.create ~v_on:1.0 ~v_off:2.0 ());
      ("NaN capacitance", fun () -> Capacitor.create ~capacitance:Float.nan ());
      ("infinite capacitance", fun () -> Capacitor.create ~capacitance:Float.infinity ());
      ("NaN v_on", fun () -> Capacitor.create ~v_on:Float.nan ());
      ("NaN v_off", fun () -> Capacitor.create ~v_off:Float.nan ());
      ("NaN v_max", fun () -> Capacitor.create ~v_max:Float.nan ());
      ("infinite v_max", fun () -> Capacitor.create ~v_max:Float.infinity ());
    ]

(* Property: under any interleaving of harvest and drain, the stored
   energy clamps at full charge, and the on/off latch obeys the
   hysteresis band — it never reads on below V_off, turns on only at or
   above V_on, and turns off only below V_off. *)
let test_capacitor_invariants_random () =
  let rng = Wn_util.Rng.create 42 in
  let c = Capacitor.create () in
  let full = Capacitor.energy c in
  let eps = 1e-12 in
  for step = 1 to 20_000 do
    let was_on = Capacitor.is_on c in
    let amount = Wn_util.Rng.float rng 4e-6 in
    if Wn_util.Rng.bool rng then Capacitor.harvest c amount
    else Capacitor.drain c amount;
    let v = Capacitor.voltage c in
    if Capacitor.energy c > full +. eps then
      Alcotest.failf "step %d: stored energy above full charge" step;
    if Capacitor.is_on c && v < 1.8 -. 1e-9 then
      Alcotest.failf "step %d: on at %.4f V, below V_off" step v;
    if (not was_on) && Capacitor.is_on c && v < 2.3 -. 1e-9 then
      Alcotest.failf "step %d: turned on at %.4f V, below V_on" step v;
    if was_on && (not (Capacitor.is_on c)) && v >= 1.8 +. 1e-9 then
      Alcotest.failf "step %d: turned off at %.4f V, above V_off" step v
  done

(* The capacitor as first written, kept as the specification the exact
   thresholds must reproduce bit for bit: a square root per latch
   update compared with the voltages, and Float.min/Float.max clamps. *)
module Sqrt_capacitor = struct
  type t = {
    c : float;
    v_on : float;
    v_off : float;
    v_max : float;
    mutable stored : float;
    mutable on : bool;
  }

  let energy_at c v = 0.5 *. c *. v *. v

  let create ~c ~v_on ~v_off ~v_max =
    { c; v_on; v_off; v_max; stored = energy_at c v_max; on = true }

  let voltage_of c s = sqrt (2.0 *. s /. c)

  let update_state t =
    let v = voltage_of t.c t.stored in
    if t.on && v < t.v_off then t.on <- false
    else if (not t.on) && v >= t.v_on then t.on <- true

  let drain t j =
    t.stored <- Float.max 0.0 (t.stored -. j);
    update_state t

  let harvest t j =
    t.stored <- Float.min (energy_at t.c t.v_max) (t.stored +. j);
    update_state t

  let set_empty t =
    t.stored <- energy_at t.c t.v_off;
    t.on <- false

  let set_full t =
    t.stored <- energy_at t.c t.v_max;
    t.on <- true
end

(* (capacitance, v_on, v_off, v_max): the default, the small
   capacitors the tests and fleets use, a turn-on at the regulator
   clamp, and odd values. *)
let capacitor_configs =
  [
    (10e-6, 2.3, 1.8, 2.5);
    (1e-6, 2.3, 1.8, 2.5);
    (2e-6, 2.3, 1.8, 2.5);
    (47e-6, 3.0, 2.0, 3.3);
    (3.3e-6, 2.4, 1.9, 2.4);
    (6.8e-7, 1.234567, 0.987654, 2.71828);
  ]

let pair_of (c, v_on, v_off, v_max) =
  ( Capacitor.create ~capacitance:c ~v_on ~v_off ~v_max (),
    Sqrt_capacitor.create ~c ~v_on ~v_off ~v_max )

let check_lockstep what cap (r : Sqrt_capacitor.t) =
  let bits = Int64.bits_of_float (Capacitor.energy cap)
  and ref_bits = Int64.bits_of_float r.stored in
  if bits <> ref_bits then
    Alcotest.failf "%s: stored %h, specification %h" what
      (Capacitor.energy cap) r.stored;
  if Capacitor.is_on cap <> r.on then
    Alcotest.failf "%s: on %b, specification %b (stored %h)" what
      (Capacitor.is_on cap) r.on r.stored

(* Random harvest/drain sequences against the specification, tilted to
   drain while the device is on and to charge while it is off, so both
   thresholds are crossed many times, with step sizes spread over six
   decades so states land close to them.  [Capacitor.run] takes a third
   of the steps, checked as the harvest-then-drain it stands for. *)
let test_capacitor_matches_sqrt_spec () =
  let rng = Wn_util.Rng.create 2024 in
  List.iter
    (fun ((c, v_on, v_off, v_max) as config) ->
      let cap, r = pair_of config in
      let what = Printf.sprintf "C=%g v_on=%g v_off=%g" c v_on v_off in
      let span = Sqrt_capacitor.energy_at c v_max in
      let amount () =
        span *. (10.0 ** -.Wn_util.Rng.float rng 6.0)
        *. Wn_util.Rng.float rng 0.3
      in
      let turn_ons = ref 0 and turn_offs = ref 0 in
      for step = 1 to 20_000 do
        let was_on = r.on in
        let what = Printf.sprintf "%s step %d" what step in
        (match Wn_util.Rng.int rng 3 with
        | 0 when r.on ->
            let j = amount () in
            Capacitor.drain cap j;
            Sqrt_capacitor.drain r j
        | 0 | 1 ->
            let j = amount () in
            Capacitor.harvest cap j;
            Sqrt_capacitor.harvest r j
        | _ ->
            let cycles = Wn_util.Rng.int rng 2_000 in
            let clock_hz = 24e6 in
            let per_cycle = amount () /. 1_000.0 in
            let power, cycle_energy =
              if r.on then (per_cycle *. clock_hz *. 0.3, per_cycle)
              else (per_cycle *. clock_hz, per_cycle *. 0.3)
            in
            let on =
              Capacitor.run cap ~power ~clock_hz ~cycle_energy ~cycles
            in
            Sqrt_capacitor.harvest r
              (power *. (float_of_int cycles /. clock_hz));
            Sqrt_capacitor.drain r (float_of_int cycles *. cycle_energy);
            if on <> r.on then Alcotest.failf "%s: run returned %b" what on);
        check_lockstep what cap r;
        if r.on && not was_on then incr turn_ons;
        if was_on && not r.on then incr turn_offs
      done;
      if !turn_ons < 50 || !turn_offs < 50 then
        Alcotest.failf "%s: only %d turn-ons and %d brown-outs" what !turn_ons
          !turn_offs)
    capacitor_configs

(* The least non-negative energy whose specification voltage reaches
   [v], found by walking ulp by ulp from the rounded ½Cv², which lies
   within a few ulps of it. *)
let spec_threshold c v =
  let reaches s = Sqrt_capacitor.voltage_of c s >= v in
  let rec down s = if reaches (Float.pred s) then down (Float.pred s) else s in
  let rec up s = if reaches s then s else up (Float.succ s) in
  let s = Sqrt_capacitor.energy_at c v in
  if reaches s then down s else up s

(* The states one ulp below, at and one ulp above each exact threshold,
   landed exactly: from [set_empty] plus one harvest, or from [set_full]
   plus one drain.  A target the arithmetic cannot land exactly is
   skipped; each threshold must be landed on from some start. *)
let test_capacitor_threshold_neighbours () =
  List.iter
    (fun ((c, v_on, v_off, v_max) as config) ->
      let cap, r = pair_of config in
      let e_empty = Sqrt_capacitor.energy_at c v_off
      and e_full = Sqrt_capacitor.energy_at c v_max in
      List.iter
        (fun (name, v) ->
          let t = spec_threshold c v in
          let landed = ref 0 in
          List.iter
            (fun (offset, target) ->
              let what =
                Printf.sprintf "C=%g %s threshold %h, %s" c name t offset
              in
              let harvest = target -. e_empty in
              if
                harvest >= 0.0
                && Float.min e_full (e_empty +. harvest) = target
              then begin
                incr landed;
                Capacitor.set_empty cap;
                Sqrt_capacitor.set_empty r;
                Capacitor.harvest cap harvest;
                Sqrt_capacitor.harvest r harvest;
                check_lockstep (what ^ " from empty") cap r;
                if name = "v_on" && Capacitor.is_on cap <> (target >= t) then
                  Alcotest.failf "%s from empty: on is %b" what
                    (Capacitor.is_on cap)
              end;
              let drain = e_full -. target in
              if drain >= 0.0 && Float.max 0.0 (e_full -. drain) = target then begin
                incr landed;
                Capacitor.set_full cap;
                Sqrt_capacitor.set_full r;
                Capacitor.drain cap drain;
                Sqrt_capacitor.drain r drain;
                check_lockstep (what ^ " from full") cap r;
                if name = "v_off" && Capacitor.is_on cap <> (target >= t) then
                  Alcotest.failf "%s from full: on is %b" what
                    (Capacitor.is_on cap)
              end)
            [ ("one ulp below", Float.pred t); ("at", t); ("one ulp above", Float.succ t) ];
          if !landed = 0 then
            Alcotest.failf "C=%g: no state near the %s threshold landed" c name)
        [ ("v_off", v_off); ("v_on", v_on) ])
    capacitor_configs

(* The same hysteresis property driven through the supply's tick-cached
   consume / wait_for_power paths: whenever [wait_for_power] reports
   power back, the capacitor must actually have reached V_on (not just
   V_off), and consume's verdict must agree with the capacitor latch. *)
let test_supply_hysteresis_under_tick_cache () =
  let rng = Wn_util.Rng.create 7 in
  let trace = Trace.square ~on_ms:3 ~off_ms:7 ~power:2.5e-3 ~duration_s:1.0 in
  let cap = Capacitor.create () in
  let supply = Supply.create ~trace ~capacitor:cap () in
  for step = 1 to 5_000 do
    (* Cycle bursts from 1 to ~3000 exercise both the within-tick
       multiply-add path and the piecewise tick-spanning path. *)
    let on = Supply.consume supply ~cycles:(1 + Wn_util.Rng.int rng 3_000) in
    if on <> Capacitor.is_on cap then
      Alcotest.failf "step %d: consume verdict disagrees with the latch" step;
    if on && Capacitor.voltage cap < 1.8 -. 1e-9 then
      Alcotest.failf "step %d: on below V_off" step;
    if not on then begin
      ignore (Supply.wait_for_power supply);
      if not (Supply.is_on supply) then
        Alcotest.failf "step %d: wait_for_power returned while off" step;
      if Capacitor.voltage cap < 2.3 -. 1e-9 then
        Alcotest.failf "step %d: wait_for_power turned on at %.4f V, below V_on"
          step (Capacitor.voltage cap)
    end
  done

let test_supply_accounting () =
  let s = Supply.always_on () in
  Alcotest.(check bool) "on" true (Supply.is_on s);
  ignore (Supply.consume s ~cycles:1000);
  Alcotest.(check int) "clock advances" 1000 (Supply.now_cycles s);
  Alcotest.(check (float 1e-12)) "energy accounted"
    (1000.0 *. Supply.default_cycle_energy)
    (Supply.energy_consumed s);
  Alcotest.(check (float 1e-9)) "seconds" (1000.0 /. 24e6) (Supply.now_s s)

let test_supply_outage_and_recovery () =
  (* A square source: the capacitor must brown out while computing and
     recover during a burst. *)
  let trace = Trace.square ~on_ms:5 ~off_ms:20 ~power:2e-3 ~duration_s:1.0 in
  let supply = Supply.create ~trace ~capacitor:(Capacitor.create ()) () in
  (* Full charge sustains ~30k cycles at 0.5 nJ/cycle. *)
  let rec drain_until_out n =
    if n > 1_000_000 then Alcotest.fail "never browned out"
    else if Supply.consume supply ~cycles:100 then drain_until_out (n + 1)
  in
  drain_until_out 0;
  Alcotest.(check bool) "off after drain" false (Supply.is_on supply);
  Alcotest.(check int) "one outage" 1 (Supply.outages supply);
  let before = Supply.now_cycles supply in
  let waited = Supply.wait_for_power supply in
  Alcotest.(check bool) "recovered" true (Supply.is_on supply);
  Alcotest.(check int) "clock advanced by the wait" (before + waited)
    (Supply.now_cycles supply);
  if waited <= 0 then Alcotest.fail "wait took no time"

let test_supply_starved () =
  let trace = Trace.constant ~power:1e-12 ~duration_s:0.5 in
  let supply = Supply.create ~trace ~capacitor:(Capacitor.create ()) () in
  let rec drain () = if Supply.consume supply ~cycles:1000 then drain () in
  drain ();
  match Supply.wait_for_power supply with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "starved supply should fail"

let test_supply_piecewise_harvest () =
  (* Regression: a multi-cycle instruction straddling a trace edge must
     credit each tick segment at that segment's power, not the whole
     instruction at the starting tick's power.  A 1 kHz trace at 24 MHz
     puts the edge of a 1 ms on / 1 ms off square at cycle 24_000. *)
  let trace = Trace.square ~on_ms:1 ~off_ms:1 ~power:2e-3 ~duration_s:0.1 in
  let cap = Capacitor.create () in
  (* A tiny cycle energy keeps the capacitor strictly between empty and
     the regulator clamp for the whole test, so stored energy is an
     exact linear function of harvest and drain. *)
  let supply = Supply.create ~cycle_energy:1e-10 ~trace ~capacitor:cap () in
  (* Advance to 10 cycles before the on->off edge, inside tick 0. *)
  ignore (Supply.consume supply ~cycles:23_990);
  Alcotest.(check int) "at edge - 10" 23_990 (Supply.now_cycles supply);
  let e0 = Capacitor.energy cap in
  (* A 20-cycle instruction straddling the edge: only its first 10
     cycles see power, so it harvests 2 mW x 10 cycles, not 2 mW x 20
     (the pre-fix behaviour). *)
  ignore (Supply.consume supply ~cycles:20);
  Alcotest.(check (float 1e-12)) "piecewise credit at the edge"
    (e0 +. (2e-3 *. 10.0 /. 24e6) -. (20.0 *. 1e-10))
    (Capacitor.energy cap);
  (* Entirely inside the off tick: no inflow at all. *)
  let e1 = Capacitor.energy cap in
  ignore (Supply.consume supply ~cycles:100);
  Alcotest.(check (float 1e-12)) "no inflow off-tick"
    (e1 -. (100.0 *. 1e-10))
    (Capacitor.energy cap);
  (* Spanning a whole off tick into the next burst: only the 110 cycles
     that land in the on tick harvest. *)
  let e2 = Capacitor.energy cap in
  ignore (Supply.consume supply ~cycles:24_000);
  Alcotest.(check (float 1e-12)) "multi-tick span"
    (e2 +. (2e-3 *. 110.0 /. 24e6) -. (24_000.0 *. 1e-10))
    (Capacitor.energy cap)

let test_wait_for_power_mid_tick () =
  (* Regression: an outage beginning mid-tick must first credit the
     remainder of that tick at that tick's power, then proceed whole
     ticks on the trace grid.  The old code charged full-length ticks
     starting at the outage point, over-crediting the first one and
     drifting the clock off the 1 ms grid for good. *)
  let trace = Trace.square ~on_ms:1 ~off_ms:1 ~power:2e-3 ~duration_s:0.1 in
  let cap = Capacitor.create () in
  Capacitor.set_empty cap;
  let supply = Supply.create ~start_full:false ~trace ~capacitor:cap () in
  (* 10k cycles into tick 0 (24k cycles per tick): off mid-tick. *)
  ignore (Supply.consume supply ~cycles:10_000);
  Alcotest.(check bool) "off mid-tick" false (Supply.is_on supply);
  let e0 = Capacitor.energy cap in
  let waited = Supply.wait_for_power supply in
  Alcotest.(check bool) "recovered" true (Supply.is_on supply);
  (* The clock comes back on the trace grid: 14k cycles close tick 0,
     then whole 24k-cycle ticks. *)
  Alcotest.(check int) "tick-aligned resume" 0
    (Supply.now_cycles supply mod 24_000);
  if waited < 14_000 then Alcotest.failf "waited only %d cycles" waited;
  Alcotest.(check int) "whole ticks after the partial one" 0
    ((waited - 14_000) mod 24_000);
  (* Exact energy balance: the 14k-cycle remainder of tick 0 at tick
     0's power, then each full tick at its own power. *)
  let n_full = (waited - 14_000) / 24_000 in
  let expect = ref (e0 +. (2e-3 *. 14_000.0 /. 24e6)) in
  for k = 1 to n_full do
    expect := !expect +. (Trace.power_at_tick trace k *. 24_000.0 /. 24e6)
  done;
  Alcotest.(check (float 1e-12)) "mid-tick partial credit" !expect
    (Capacitor.energy cap)

let test_supply_scripted () =
  let s = Supply.always_on ~off_cycles:1_000 () in
  Alcotest.(check bool) "on at start" true (Supply.is_on s);
  Alcotest.(check bool) "runs to 499" true (Supply.consume s ~cycles:499);
  Supply.cut s;
  Alcotest.(check bool) "cut at 499" false (Supply.is_on s);
  Alcotest.(check int) "one outage" 1 (Supply.outages s);
  Alcotest.(check bool) "consume while cut stays off" false
    (Supply.consume s ~cycles:1);
  Alcotest.(check int) "off period is exact" 1_000 (Supply.wait_for_power s);
  Alcotest.(check bool) "back on" true (Supply.is_on s);
  Alcotest.(check int) "clock accounts the off time" 1_500 (Supply.now_cycles s);
  Alcotest.(check bool) "never browns out on its own" true
    (Supply.consume s ~cycles:1_000_000);
  Supply.cut s;
  Alcotest.(check bool) "second cut" false (Supply.is_on s);
  Alcotest.(check int) "two outages" 2 (Supply.outages s);
  Supply.cut s;
  Alcotest.(check int) "cut while off is a no-op" 2 (Supply.outages s);
  ignore (Supply.wait_for_power s);
  Alcotest.(check bool) "recovers" true (Supply.is_on s);
  Alcotest.(check int) "wait while on is free" 0 (Supply.wait_for_power s);
  Alcotest.check_raises "negative off-period"
    (Invalid_argument "Supply.always_on") (fun () ->
      ignore (Supply.always_on ~off_cycles:(-1) ()))

let test_supply_cut_capacitor_backed () =
  let trace = Trace.square ~on_ms:5 ~off_ms:5 ~power:2e-3 ~duration_s:1.0 in
  let cap = Capacitor.create () in
  let s = Supply.create ~trace ~capacitor:cap () in
  Alcotest.(check bool) "on" true (Supply.is_on s);
  Supply.cut s;
  Alcotest.(check bool) "off after cut" false (Supply.is_on s);
  Alcotest.(check int) "outage counted" 1 (Supply.outages s);
  ignore (Supply.wait_for_power s);
  Alcotest.(check bool) "recharges on the trace" true (Supply.is_on s);
  (* Recharge honoured hysteresis: back above V_on, not just V_off. *)
  if Capacitor.voltage cap < 2.3 -. 1e-9 then
    Alcotest.fail "recovered below V_on"

(* NaN and infinities are rejected where they enter the power model:
   each used to leave the device on for good. *)
let test_trace_rejects_non_finite () =
  List.iter
    (fun (what, p) ->
      Alcotest.check_raises what
        (Invalid_argument "Trace.of_samples: negative power") (fun () ->
          ignore (Trace.of_samples [| 1e-3; p; 0.0 |])))
    [ ("NaN sample", Float.nan); ("infinite sample", Float.infinity) ]

(* The trace keeps its own copy: a write to the caller's array after the
   checks can smuggle in no unchecked sample. *)
let test_trace_of_samples_copies () =
  let samples = [| 1e-3; 2e-3 |] in
  let t = Trace.of_samples samples in
  samples.(0) <- Float.nan;
  Alcotest.(check (float 0.0)) "original sample" 1e-3 (Trace.power_at_tick t 0)

let test_harvest_drain_reject_nan () =
  let c = Capacitor.create () in
  Alcotest.check_raises "harvest NaN" (Invalid_argument "Capacitor.harvest")
    (fun () -> Capacitor.harvest c Float.nan);
  Alcotest.check_raises "drain NaN" (Invalid_argument "Capacitor.drain")
    (fun () -> Capacitor.drain c Float.nan);
  Alcotest.(check bool) "charge untouched" true
    (Capacitor.energy c = Capacitor.energy (Capacitor.create ()))

let test_supply_rejects_non_finite () =
  let trace = Trace.constant ~power:0.0 ~duration_s:0.1 in
  List.iter
    (fun (what, make) ->
      Alcotest.check_raises what (Invalid_argument "Supply.create") (fun () ->
          ignore (make (Capacitor.create ()))))
    [
      ( "NaN cycle energy",
        fun capacitor -> Supply.create ~cycle_energy:Float.nan ~trace ~capacitor () );
      ( "infinite cycle energy",
        fun capacitor ->
          Supply.create ~cycle_energy:Float.infinity ~trace ~capacitor () );
      ("NaN clock", fun capacitor -> Supply.create ~clock_hz:Float.nan ~trace ~capacitor ());
      ( "infinite clock",
        fun capacitor -> Supply.create ~clock_hz:Float.infinity ~trace ~capacitor () );
    ]

(* Minor words [f] allocates, less the boxed float [Gc.minor_words]
   itself returns, measured the way the real measurement pays it. *)
let minor_words_of f =
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let baseline = b -. a in
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  w1 -. w0 -. baseline

(* The per-instruction supply calls of a capacitor-backed run allocate
   nothing: 11k one-cycle consumes stay inside the first 24k-cycle
   trace tick, so every call takes the cached-tick path. *)
let test_supply_no_alloc () =
  let trace = Trace.constant ~power:1e-3 ~duration_s:0.1 in
  let supply = Supply.create ~trace ~capacitor:(Capacitor.create ()) () in
  for _ = 1 to 1_000 do
    ignore (Supply.consume supply ~cycles:1)
  done;
  let consumed =
    minor_words_of (fun () ->
        for _ = 1 to 10_000 do
          ignore (Sys.opaque_identity (Supply.consume supply ~cycles:1))
        done)
  in
  if consumed <> 0.0 then
    Alcotest.failf "Supply.consume allocated %.0f minor words over 10k calls"
      consumed;
  Alcotest.(check int) "still inside the first tick" 11_000
    (Supply.now_cycles supply);
  let guarded =
    minor_words_of (fun () ->
        for _ = 1 to 10_000 do
          ignore (Sys.opaque_identity (Supply.assured supply ~cycles:40))
        done)
  in
  if guarded <> 0.0 then
    Alcotest.failf "Supply.assured allocated %.0f minor words over 10k calls"
      guarded

let test_burst_length_calibration () =
  (* The paper's regime: a full charge lasts of the order of a
     millisecond at 24 MHz (tens of thousands of cycles). *)
  let trace = Trace.constant ~power:0.0 ~duration_s:0.1 in
  let supply = Supply.create ~trace ~capacitor:(Capacitor.create ()) () in
  let cycles = ref 0 in
  while Supply.consume supply ~cycles:100 do
    cycles := !cycles + 100
  done;
  if !cycles < 10_000 || !cycles > 100_000 then
    Alcotest.failf "burst of %d cycles is outside the paper's regime" !cycles

let () =
  Alcotest.run "wn.power"
    [
      ( "trace",
        [
          Alcotest.test_case "constant" `Quick test_trace_basics;
          Alcotest.test_case "square" `Quick test_trace_square;
          Alcotest.test_case "rf burst" `Quick test_trace_rf_burst;
          Alcotest.test_case "paper suite" `Quick test_paper_suite;
          Alcotest.test_case "rejects NaN and infinities" `Quick
            test_trace_rejects_non_finite;
          Alcotest.test_case "of_samples copies its input" `Quick
            test_trace_of_samples_copies;
        ] );
      ( "capacitor",
        [
          Alcotest.test_case "hysteresis" `Quick test_capacitor_hysteresis;
          Alcotest.test_case "energy" `Quick test_capacitor_energy;
          Alcotest.test_case "bad config" `Quick test_capacitor_bad_config;
          Alcotest.test_case "random-walk invariants" `Quick
            test_capacitor_invariants_random;
          Alcotest.test_case "matches the square-root specification" `Quick
            test_capacitor_matches_sqrt_spec;
          Alcotest.test_case "exact thresholds, ulp by ulp" `Quick
            test_capacitor_threshold_neighbours;
          Alcotest.test_case "harvest and drain reject NaN" `Quick
            test_harvest_drain_reject_nan;
        ] );
      ( "supply",
        [
          Alcotest.test_case "accounting" `Quick test_supply_accounting;
          Alcotest.test_case "outage and recovery" `Quick test_supply_outage_and_recovery;
          Alcotest.test_case "starved" `Quick test_supply_starved;
          Alcotest.test_case "piecewise harvest" `Quick test_supply_piecewise_harvest;
          Alcotest.test_case "mid-tick wait_for_power" `Quick test_wait_for_power_mid_tick;
          Alcotest.test_case "hysteresis under tick cache" `Quick
            test_supply_hysteresis_under_tick_cache;
          Alcotest.test_case "scripted outages" `Quick test_supply_scripted;
          Alcotest.test_case "cut on capacitor supply" `Quick
            test_supply_cut_capacitor_backed;
          Alcotest.test_case "burst calibration" `Quick test_burst_length_calibration;
          Alcotest.test_case "rejects NaN and infinities" `Quick
            test_supply_rejects_non_finite;
          Alcotest.test_case "consume and assured allocation-free" `Quick
            test_supply_no_alloc;
        ] );
    ]
