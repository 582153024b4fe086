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

(* Stored energy is in femtojoules; these drive one side of a charge. *)
let harvest c fj = ignore (Capacitor.charge c ~harvest:fj ~drain:0)

let drain c fj = ignore (Capacitor.charge c ~harvest:0 ~drain:fj)

let test_capacitor_hysteresis () =
  let c = Capacitor.create () in
  Alcotest.(check bool) "starts on" true (Capacitor.is_on c);
  Alcotest.(check (float 1e-6)) "starts at v_max" 2.5 (Capacitor.voltage c);
  (* Drain just past brown-out: down to the threshold it stays on, one
     more femtojoule browns it out. *)
  drain c (Capacitor.energy c - Capacitor.off_below c);
  Alcotest.(check bool) "on at the brown-out threshold" true (Capacitor.is_on c);
  drain c 1;
  Alcotest.(check bool) "browned out" false (Capacitor.is_on c);
  (* A little harvest is not enough: hysteresis waits for v_on. *)
  harvest c 100_000_000;
  Alcotest.(check bool) "still off below v_on" false (Capacitor.is_on c);
  harvest c 1_000_000_000_000_000;
  Alcotest.(check bool) "back on" true (Capacitor.is_on c);
  Alcotest.(check int) "clamped at full charge" (Capacitor.full c)
    (Capacitor.energy c);
  Alcotest.(check (float 1e-6)) "clamped at v_max" 2.5 (Capacitor.voltage c)

(* ½·10µF·(2.5² − 1.8²) = 15.05 µJ of usable charge, exactly. *)
let test_capacitor_energy () =
  let c = Capacitor.create () in
  Alcotest.(check int) "full charge" 31_250_000_000 (Capacitor.full c);
  Alcotest.(check int) "burst budget" 15_050_000_000 (Capacitor.burst_budget c);
  Alcotest.(check int) "restart budget" 10_250_000_000
    (Capacitor.restart_budget c);
  Capacitor.set_empty c;
  Alcotest.(check int) "empty sits at the brown-out threshold"
    (Capacitor.off_below c) (Capacitor.energy c);
  Alcotest.(check bool) "empty is off" false (Capacitor.is_on c);
  Capacitor.set_full c;
  Alcotest.(check bool) "full is on" true (Capacitor.is_on c);
  Alcotest.(check int) "1 nJ" 1_000_000 (Capacitor.femtojoules 1e-9);
  Alcotest.(check (float 0.0)) "back to joules" 1.025e-5 (Capacitor.joules 10_250_000_000)

(* Including NaN and infinities, which each used to leave the device on
   for good, and a capacitor whose full charge an int cannot hold. *)
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
      (* 3.1e19 fJ, past max_int. *)
      ("10 kF", fun () -> Capacitor.create ~capacitance:1e4 ());
      ("1 kF at 2.5 V, past 2^60 fJ", fun () -> Capacitor.create ~capacitance:1e3 ());
    ]

(* The largest capacitors accepted take charges and drains of more than
   a full charge without overflowing. *)
let test_capacitor_range () =
  let c = Capacitor.create ~capacitance:300.0 () in
  let full = Capacitor.full c in
  if full >= 1 lsl 60 then Alcotest.failf "full charge %d past 2^60" full;
  for _ = 1 to 3 do
    let on = Capacitor.charge c ~harvest:((1 lsl 60) - 1) ~drain:0 in
    Alcotest.(check bool) "full" true on;
    Alcotest.(check int) "clamped at full" full (Capacitor.energy c);
    ignore (Capacitor.charge c ~harvest:(full + 1) ~drain:((1 lsl 60) - 1));
    Alcotest.(check int) "floored at zero" 0 (Capacitor.energy c);
    Alcotest.(check bool) "browned out" false (Capacitor.is_on c)
  done

(* Property: under any interleaving of harvest and drain, the stored
   energy stays in [0, full], and the on/off latch obeys the hysteresis
   band — it never reads on below V_off, turns on only at or above V_on,
   and turns off only below V_off. *)
let test_capacitor_invariants_random () =
  let rng = Wn_util.Rng.create 42 in
  let c = Capacitor.create () in
  let full = Capacitor.full c in
  for step = 1 to 20_000 do
    let was_on = Capacitor.is_on c in
    let amount = Wn_util.Rng.int rng 4_000_000_000 in
    if Wn_util.Rng.bool rng then harvest c amount else drain c amount;
    let v = Capacitor.voltage c in
    let e = Capacitor.energy c in
    if e > full || e < 0 then
      Alcotest.failf "step %d: stored energy %d outside [0, %d]" step e full;
    if Capacitor.is_on c && v < 1.8 then
      Alcotest.failf "step %d: on at %.4f V, below V_off" step v;
    if (not was_on) && Capacitor.is_on c && v < 2.3 then
      Alcotest.failf "step %d: turned on at %.4f V, below V_on" step v;
    if was_on && (not (Capacitor.is_on c)) && v >= 1.8 then
      Alcotest.failf "step %d: turned off at %.4f V, above V_off" step v
  done

(* The capacitor as first written, kept as the specification the levels
   must reproduce exactly: a square root per latch update compared with
   the voltages, and min/max clamps, over the same femtojoules. *)
module Sqrt_capacitor = struct
  type t = {
    c : float;
    v_on : float;
    v_off : float;
    full : int;
    empty : int;
    mutable stored : int;
    mutable on : bool;
  }

  let voltage_of c fj = sqrt (2.0 *. (float_of_int fj /. 1e15) /. c)

  let reaches c v fj = voltage_of c fj >= v

  (* The least energy whose voltage reaches [v], walked one femtojoule
     at a time from the rounded ½Cv², which lies within a few of it. *)
  let least c v =
    let s = Float.to_int (Float.round (0.5 *. c *. v *. v *. 1e15)) in
    let rec down s = if reaches c v (s - 1) then down (s - 1) else s in
    let rec up s = if reaches c v s then s else up (s + 1) in
    if reaches c v s then down s else up s

  let create ~c ~v_on ~v_off ~v_max =
    let full = least c v_max in
    { c; v_on; v_off; full; empty = least c v_off; stored = full; on = true }

  let update_state t =
    let v = voltage_of t.c t.stored in
    if t.on && v < t.v_off then t.on <- false
    else if (not t.on) && v >= t.v_on then t.on <- true

  let drain t j =
    t.stored <- Int.max 0 (t.stored - j);
    update_state t

  let harvest t j =
    t.stored <- Int.min t.full (t.stored + j);
    update_state t

  let set_empty t =
    t.stored <- t.empty;
    t.on <- false

  let set_full t =
    t.stored <- t.full;
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
  if Capacitor.energy cap <> r.stored then
    Alcotest.failf "%s: stored %d, specification %d" what (Capacitor.energy cap)
      r.stored;
  if Capacitor.is_on cap <> r.on then
    Alcotest.failf "%s: on %b, specification %b (stored %d)" what
      (Capacitor.is_on cap) r.on r.stored

(* Random harvest/drain sequences against the specification, tilted to
   drain while the device is on and to charge while it is off, so both
   thresholds are crossed many times, with step sizes spread over six
   decades so states land close to them.  A third of the steps are one
   [charge] of both, checked as the harvest-then-drain it stands for. *)
let test_capacitor_matches_sqrt_spec () =
  let rng = Wn_util.Rng.create 2024 in
  List.iter
    (fun ((c, v_on, v_off, _) as config) ->
      let cap, r = pair_of config in
      let what = Printf.sprintf "C=%g v_on=%g v_off=%g" c v_on v_off in
      let amount () =
        int_of_float
          (float_of_int r.full
          *. (10.0 ** -.Wn_util.Rng.float rng 6.0)
          *. Wn_util.Rng.float rng 0.3)
      in
      let turn_ons = ref 0 and turn_offs = ref 0 in
      for step = 1 to 20_000 do
        let was_on = r.on in
        let what = Printf.sprintf "%s step %d" what step in
        (match Wn_util.Rng.int rng 3 with
        | 0 when r.on ->
            let j = amount () in
            drain cap j;
            Sqrt_capacitor.drain r j
        | 0 | 1 ->
            let j = amount () in
            harvest cap j;
            Sqrt_capacitor.harvest r j
        | _ ->
            let j = amount () and k = amount () in
            let h, d = if r.on then (k / 3, j) else (j, k / 3) in
            let on = Capacitor.charge cap ~harvest:h ~drain:d in
            Sqrt_capacitor.harvest r h;
            Sqrt_capacitor.drain r d;
            if on <> r.on then Alcotest.failf "%s: charge returned %b" what on);
        check_lockstep what cap r;
        if r.on && not was_on then incr turn_ons;
        if was_on && not r.on then incr turn_offs
      done;
      if !turn_ons < 50 || !turn_offs < 50 then
        Alcotest.failf "%s: only %d turn-ons and %d brown-outs" what !turn_ons
          !turn_offs)
    capacitor_configs

(* Each level n is the least energy whose specification voltage reaches
   its voltage: n reaches it and n - 1 does not.  The states n - 1, n
   and n + 1 are then landed exactly, from [set_empty] plus one
   harvest or from [set_full] plus one drain, and the latch must
   agree with the specification's. *)
let test_capacitor_level_neighbours () =
  List.iter
    (fun ((c, v_on, v_off, v_max) as config) ->
      let cap, r = pair_of config in
      List.iter
        (fun (name, v, n) ->
          let what offset = Printf.sprintf "C=%g %s level %d, %s" c name n offset in
          if not (Sqrt_capacitor.reaches c v n) then
            Alcotest.failf "%s: below %g V" (what "at") v;
          if Sqrt_capacitor.reaches c v (n - 1) then
            Alcotest.failf "%s: already reaches %g V" (what "one below") v;
          List.iter
            (fun (offset, target) ->
              let what = what offset in
              if target >= r.empty then begin
                Capacitor.set_empty cap;
                Sqrt_capacitor.set_empty r;
                harvest cap (target - r.empty);
                Sqrt_capacitor.harvest r (target - r.empty);
                check_lockstep (what ^ " from empty") cap r;
                if name = "v_on" && Capacitor.is_on cap <> (target >= n) then
                  Alcotest.failf "%s from empty: on is %b" what
                    (Capacitor.is_on cap)
              end;
              if target <= r.full then begin
                Capacitor.set_full cap;
                Sqrt_capacitor.set_full r;
                drain cap (r.full - target);
                Sqrt_capacitor.drain r (r.full - target);
                check_lockstep (what ^ " from full") cap r;
                if name = "v_off" && Capacitor.is_on cap <> (target >= n) then
                  Alcotest.failf "%s from full: on is %b" what
                    (Capacitor.is_on cap)
              end)
            [ ("one below", n - 1); ("at", n); ("one above", n + 1) ])
        [
          ("v_off", v_off, Capacitor.off_below cap);
          ("v_on", v_on, Capacitor.on_from cap);
          ("v_max", v_max, Capacitor.full cap);
        ])
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
     credit each tick segment at that segment's rate, not the whole
     instruction at the starting tick's.  A 1 kHz trace at 24 MHz puts
     the edge of a 1 ms on / 1 ms off square at cycle 24_000. *)
  let trace = Trace.square ~on_ms:1 ~off_ms:1 ~power:2e-3 ~duration_s:0.1 in
  let cap = Capacitor.create () in
  (* 2 mW at 24 MHz is 83,333 fJ per cycle, rounded once; 0.1 nJ per
     cycle drains 100,000 fJ.  The capacitor stays strictly between
     brown-out and full charge after the first consume, so stored
     energy is an exact linear function of harvest and drain. *)
  let rate = 83_333 and per_cycle = 100_000 in
  let supply = Supply.create ~cycle_energy:1e-10 ~trace ~capacitor:cap () in
  (* Advance to 10 cycles before the on->off edge, inside tick 0. *)
  ignore (Supply.consume supply ~cycles:23_990);
  Alcotest.(check int) "at edge - 10" 23_990 (Supply.now_cycles supply);
  let e0 = Capacitor.energy cap in
  (* A 20-cycle instruction straddling the edge: only its first 10
     cycles see power. *)
  ignore (Supply.consume supply ~cycles:20);
  Alcotest.(check int) "piecewise credit at the edge"
    (e0 + (rate * 10) - (20 * per_cycle))
    (Capacitor.energy cap);
  (* Entirely inside the off tick: no inflow at all. *)
  let e1 = Capacitor.energy cap in
  ignore (Supply.consume supply ~cycles:100);
  Alcotest.(check int) "no inflow off-tick" (e1 - (100 * per_cycle))
    (Capacitor.energy cap);
  (* Spanning a whole off tick into the next burst: only the 110 cycles
     that land in the on tick harvest. *)
  let e2 = Capacitor.energy cap in
  ignore (Supply.consume supply ~cycles:24_000);
  Alcotest.(check int) "multi-tick span"
    (e2 + (rate * 110) - (24_000 * per_cycle))
    (Capacitor.energy cap)

let test_wait_for_power_mid_tick () =
  (* Regression: an outage beginning mid-tick must first credit the
     remainder of that tick at that tick's rate, then proceed whole
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
     0's 83,333 fJ per cycle, then each full tick at its own rate; the
     last tick overshoots the turn-on threshold by less than one tick's
     harvest, well short of full charge. *)
  let rate tick = Capacitor.femtojoules (Trace.power_at_tick trace tick /. 24e6) in
  let n_full = (waited - 14_000) / 24_000 in
  let expect = ref (e0 + (83_333 * 14_000)) in
  for k = 1 to n_full do
    expect := !expect + (rate k * 24_000)
  done;
  Alcotest.(check int) "mid-tick partial credit" !expect (Capacitor.energy cap)

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

let test_charge_rejects_negative () =
  let c = Capacitor.create () in
  Alcotest.check_raises "negative harvest" (Invalid_argument "Capacitor.charge")
    (fun () -> ignore (Capacitor.charge c ~harvest:(-1) ~drain:0));
  Alcotest.check_raises "negative drain" (Invalid_argument "Capacitor.charge")
    (fun () -> ignore (Capacitor.charge c ~harvest:0 ~drain:min_int));
  Alcotest.(check int) "charge untouched" (Capacitor.full c) (Capacitor.energy c)

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
      (* Below 500 Hz a 1-ms tick rounds to no cycles at all. *)
      ("100 Hz clock", fun capacitor -> Supply.create ~clock_hz:100.0 ~trace ~capacitor ());
      ("400 Hz clock", fun capacitor -> Supply.create ~clock_hz:400.0 ~trace ~capacitor ());
      (* Past about 7.7e15 Hz a 10-minute recharge window leaves the int
         range. *)
      ("1e16 Hz clock", fun capacitor -> Supply.create ~clock_hz:1e16 ~trace ~capacitor ());
    ];
  (* Each end of the range is usable: a 1-cycle tick at 500 Hz. *)
  List.iter
    (fun clock_hz ->
      let s = Supply.create ~clock_hz ~trace ~capacitor:(Capacitor.create ()) () in
      Alcotest.(check bool) (Printf.sprintf "%g Hz runs" clock_hz) true
        (Supply.consume s ~cycles:3))
    [ 500.0; 7.6e15 ]

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

(* The supply calls of a capacitor-backed run allocate nothing: 11k
   one-cycle consumes stay inside the first 24k-cycle trace tick, so
   every call takes the cached-tick path. *)
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
  let leased =
    minor_words_of (fun () ->
        for _ = 1 to 10_000 do
          ignore (Sys.opaque_identity (Supply.lease supply))
        done)
  in
  if leased <> 0.0 then
    Alcotest.failf "Supply.lease allocated %.0f minor words over 10k calls"
      leased

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


(* A supply whose trace saturates the harvest rate and whose cycle
   energy saturates the drain: every span clamps, at any capacitor size
   and span length, and nothing overflows.  A 1 PHz clock makes a trace
   tick 10^12 cycles long, so a 2^41-cycle span crosses only a few, and
   makes a watt one femtojoule per cycle. *)
let test_supply_extreme_rates () =
  (* Past 2^30 fJ per cycle the product is checked by a quotient: exact
     below a full charge, saturated past it. *)
  let cap = Capacitor.create ~capacitance:300.0 () in
  let trace = Trace.constant ~power:0x1p30 ~duration_s:1.0 in
  let s = Supply.create ~clock_hz:1e15 ~cycle_energy:0.0 ~trace ~capacitor:cap () in
  Capacitor.set_empty cap;
  ignore (Supply.consume s ~cycles:(1 lsl 28));
  Alcotest.(check int) "2^30 fJ/cycle for 2^28 cycles"
    (Capacitor.off_below cap + (1 lsl 58))
    (Capacitor.energy cap);
  ignore (Supply.consume s ~cycles:(1 lsl 30));
  Alcotest.(check int) "saturated at full charge" (Capacitor.full cap)
    (Capacitor.energy cap);
  List.iter
    (fun capacitance ->
      List.iter
        (fun (power, cycle_energy) ->
          let trace = Trace.of_samples [| power; power; 0.0 |] in
          let cap = Capacitor.create ~capacitance () in
          let full = Capacitor.full cap in
          let s =
            Supply.create ~clock_hz:1e15 ~cycle_energy ~trace ~capacitor:cap ()
          in
          List.iter
            (fun cycles ->
              let what =
                Printf.sprintf "C=%g power %g, %g J/cycle, %d cycles"
                  capacitance power cycle_energy cycles
              in
              let on = Supply.consume s ~cycles in
              let e = Capacitor.energy cap in
              if e < 0 || e > full then
                Alcotest.failf "%s: stored %d outside [0, %d]" what e full;
              if on <> Capacitor.is_on cap then
                Alcotest.failf "%s: verdict disagrees with the latch" what;
              if power > 0.0 && cycle_energy = 0.0 && e <> full then
                Alcotest.failf "%s: harvest did not fill the capacitor" what;
              if cycle_energy > 1.0 && e <> 0 then
                Alcotest.failf "%s: drain did not empty the capacitor" what;
              if not on then ignore (Supply.wait_for_power s))
            [ 1; 24_000; 1 lsl 41; 1 ])
        [
          (Float.max_float, 0.0);
          (1e300, 1e-9);
          (Float.max_float, Float.max_float);
          (1e3, 1e300);
        ])
    [ 10e-6; 300.0 ]

(* The lease is the longest span inside the trace tick whose drain
   cannot take the capacitor below brown-out and whose harvest cannot
   take it past full charge; nothing while the supply is off or cut, and
   no bound on an always-on supply. *)
let test_supply_guard_bounds () =
  (* 2 mW in 1 ms bursts: 83,333 fJ per cycle in even ticks, none in
     odd ones; the core drains 10^6 fJ per cycle. *)
  let trace = Trace.square ~on_ms:1 ~off_ms:1 ~power:2e-3 ~duration_s:0.1 in
  let cap = Capacitor.create () in
  let s = Supply.create ~trace ~capacitor:cap () in
  let set energy =
    Capacitor.set_full cap;
    drain cap (Capacitor.full cap - energy)
  in
  let check what expect energy =
    set energy;
    Alcotest.(check int) what expect (Supply.lease s)
  in
  let off_below = Capacitor.off_below cap and full = Capacitor.full cap in
  (* Tick 0 is a burst. *)
  check "drain lands on the threshold" 1_024 (off_below + 1_024_000_000);
  check "drain one fJ short of a cycle" 1_023 (off_below + 1_023_999_999);
  check "at the threshold" 0 off_below;
  check "harvest reaches full" 1 (full - 83_333);
  check "harvest one fJ short of a cycle" 0 (full - 83_332);
  check "at full in a burst" 0 full;
  (* 24,000 cycles in: the next tick delivers nothing. *)
  ignore (Supply.consume s ~cycles:(24_000 - Supply.now_cycles s));
  check "at full in a quiet tick" ((full - off_below) / 1_000_000) full;
  Capacitor.set_empty cap;
  Alcotest.(check int) "latch off" 0 (Supply.lease s);
  (* Ten cycles before the edge into the next burst, the lease ends at
     the edge, however much charge is left. *)
  ignore (Supply.consume s ~cycles:(48_000 - 10 - Supply.now_cycles s));
  check "ends at the tick edge" 10 (full - (83_333 * 10));
  Supply.cut s;
  Alcotest.(check int) "cut" 0 (Supply.lease s);
  let always = Supply.always_on () in
  Alcotest.(check int) "always on" max_int (Supply.lease always);
  Supply.cut always;
  Alcotest.(check int) "always on, cut" 0 (Supply.lease always);
  ignore (Supply.wait_for_power always);
  Alcotest.(check int) "always on, restored" max_int (Supply.lease always)

(* A run of instructions on a capacitor-backed supply: the clock speed
   (a slow clock makes ticks of 100 and 300 cycles, so runs cross square
   edges), the harvest rate of each tick of the wrapping trace, the
   core's cycle energy, the clock position, the starting energy (a
   level plus an offset, reached from full or from empty), and each
   instruction's latency. *)
type run_case = {
  clock_hz : float;
  rates : int array;
  cycle_energy : float;
  offset : int;
  level : int;
      (* 0: brown-out threshold, 1: turn-on threshold, 2: full charge,
         3: where the run's drain alone ends at the brown-out threshold,
         4: where its harvest alone ends at full charge *)
  delta : int;
  from_empty : bool;
  latencies : int list;
}

let gen_run_case =
  let open QCheck.Gen in
  let* clock_hz = oneofl [ 24e6; 1e5; 3e5 ] in
  let* rates =
    array_size (int_range 1 6)
      (oneofl [ 0; 62_500; 500_000; 1_000_000; 2_000_000 ])
  in
  let* cycle_energy = oneofl [ 0.5e-9; 1e-9; 2e-9 ] in
  let* offset = int_bound (int_of_float (clock_hz *. 3e-3)) in
  let* level = int_bound 4 in
  let* delta =
    oneof
      [
        return 0;
        int_range (-1_000_000) 1_000_000;
        int_range (-40_000_000) 40_000_000;
      ]
  in
  let* from_empty = bool in
  let+ latencies = list_size (int_range 2 64) (int_range 1 16) in
  { clock_hz; rates; cycle_energy; offset; level; delta; from_empty; latencies }

let print_run_case c =
  Printf.sprintf
    "clock %g Hz, rates [%s] fJ/cycle, %g J/cycle, offset %d, level %d%+d \
     from %s, latencies [%s]"
    c.clock_hz
    (String.concat "; " (Array.to_list (Array.map string_of_int c.rates)))
    c.cycle_energy c.offset c.level c.delta
    (if c.from_empty then "empty" else "full")
    (String.concat "; " (List.map string_of_int c.latencies))

(* An independent model of the supply's integration: each tick harvests
   its power over the clock, rounded to fJ per cycle once, times the
   cycles of the span inside the tick; the core drains its cycle energy
   rounded to fJ, per cycle. *)
let model_harvest c trace a b =
  let per_tick = int_of_float (Float.round (c.clock_hz *. Trace.sample_period_s)) in
  let rate tick =
    Capacitor.femtojoules (Trace.power_at_tick trace tick /. c.clock_hz)
  in
  let rec go a acc =
    if a >= b then acc
    else
      let tick = a / per_tick in
      let seg_end = Int.min b ((tick + 1) * per_tick) in
      go seg_end (acc + (rate tick * (seg_end - a)))
  in
  go a 0

let model_drain c cycles = Capacitor.femtojoules c.cycle_energy * cycles

(* The supply at the case's clock position and starting energy. *)
let run_supply c =
  let trace =
    Trace.of_samples (Array.map (fun r -> float_of_int r *. c.clock_hz /. 1e15) c.rates)
  in
  let cap = Capacitor.create () in
  let s =
    Supply.create ~clock_hz:c.clock_hz ~cycle_energy:c.cycle_energy ~trace
      ~capacitor:cap ()
  in
  ignore (Supply.consume s ~cycles:c.offset);
  let off_below = Capacitor.off_below cap and full = Capacitor.full cap in
  let total = List.fold_left ( + ) 0 c.latencies in
  let level =
    match c.level with
    | 0 -> off_below
    | 1 -> Capacitor.on_from cap
    | 2 -> full
    | 3 -> off_below + model_drain c total
    | _ -> full - model_harvest c trace c.offset (c.offset + total)
  in
  let target = Int.max 0 (Int.min full (level + c.delta)) in
  if c.from_empty then begin
    Capacitor.set_empty cap;
    if target >= off_below then harvest cap (target - off_below)
    else drain cap (off_below - target)
  end
  else begin
    Capacitor.set_full cap;
    drain cap (full - target)
  end;
  (s, cap, trace)

(* Charges [spans] from the capacitor's energy at clock [start] on the
   model, each span harvesting, clamping at full charge, draining and
   flooring at zero.  Returns the harvested, drained and clamped totals
   (clamped counts energy lost at full charge less energy floored at
   zero). *)
let model_spans c cap trace ~start spans =
  let full = Capacitor.full cap in
  let _, _, harvested, drained, clamped =
    List.fold_left
      (fun (e, clock, harvested, drained, clamped) cycles ->
        let h = model_harvest c trace clock (clock + cycles) in
        let d = model_drain c cycles in
        let top = Int.max 0 (e + h - full) in
        let after = e + h - top - d in
        let bottom = Int.max 0 (-after) in
        ( after + bottom,
          clock + cycles,
          harvested + h,
          drained + d,
          clamped + top - bottom ))
      (Capacitor.energy cap, start, 0, 0, 0)
      spans
  in
  (harvested, drained, clamped)

(* The lease's specification, kept here on its own: with the latch on,
   [cycles] from clock [start] are in band when their harvest alone
   cannot take stored energy past full charge and their drain alone
   cannot take it below the brown-out threshold. *)
let in_band c cap trace ~start cycles =
  let e = Capacitor.energy cap in
  Capacitor.is_on cap
  && e + model_harvest c trace start (start + cycles) <= Capacitor.full cap
  && e - model_drain c cycles >= Capacitor.off_below cap

(* [latencies] cut short to sum to at most [limit], the last kept one
   trimmed to fit. *)
let rec clip limit = function
  | l :: rest when l < limit -> l :: clip (limit - l) rest
  | _ :: _ when limit > 0 -> [ limit ]
  | _ -> []

(* From each generated state, [Supply.lease] is the longest span inside
   the trace tick that [in_band] admits: one cycle more leaves the tick
   or breaks the band, and it is 0 whenever the latch is off.  The
   run's instructions cut short to the lease charge the same in
   per-instruction consumes as in one consume of their total: equal
   energy, clock, latch and outage count, and neither clamps.  Any run,
   leased or not, balances exactly against the model:
   initial + harvested - drained - clamped = final. *)
let prop_batched_charge_exact =
  QCheck.Test.make ~count:10_000
    ~name:"one guarded consume == per-instruction consumes"
    (QCheck.make ~print:print_run_case gen_run_case)
    (fun c ->
      let charge spans =
        let s, cap, trace = run_supply c in
        let initial = Capacitor.energy cap and start = Supply.now_cycles s in
        let harvested, drained, clamped =
          model_spans c cap trace ~start spans
        in
        List.iter (fun cycles -> ignore (Supply.consume s ~cycles)) spans;
        let final = Capacitor.energy cap in
        if initial + harvested - drained - clamped <> final then
          QCheck.Test.fail_reportf
            "unbalanced: initial %d + harvested %d - drained %d - clamped %d <> final %d"
            initial harvested drained clamped final;
        (clamped, (final, Supply.now_cycles s, Supply.is_on s, Supply.outages s))
      in
      let s, cap, trace = run_supply c in
      let start = Supply.now_cycles s and lease = Supply.lease s in
      let per_tick =
        int_of_float (Float.round (c.clock_hz *. Trace.sample_period_s))
      in
      let tick_end = ((start / per_tick) + 1) * per_tick in
      if start + lease > tick_end then
        QCheck.Test.fail_reportf "lease %d leaves the tick ending at %d"
          lease tick_end;
      if lease > 0 && not (in_band c cap trace ~start lease) then
        QCheck.Test.fail_reportf "lease %d is out of band" lease;
      if start + lease < tick_end && in_band c cap trace ~start (lease + 1) then
        QCheck.Test.fail_reportf "lease %d stops short of the band" lease;
      ignore (charge c.latencies);
      let leased = clip lease c.latencies in
      let clamped, stepped = charge leased in
      let total = List.fold_left ( + ) 0 leased in
      let _, batched = charge (if total = 0 then [] else [ total ]) in
      if clamped <> 0 then
        QCheck.Test.fail_reportf "leased run clamped %d fJ" clamped;
      stepped = batched)

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
          Alcotest.test_case "exact levels at n-1, n and n+1" `Quick
            test_capacitor_level_neighbours;
          Alcotest.test_case "charge rejects negative amounts" `Quick
            test_charge_rejects_negative;
          Alcotest.test_case "range: amounts past a full charge" `Quick
            test_capacitor_range;
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
          Alcotest.test_case "consume and lease allocation-free" `Quick
            test_supply_no_alloc;
          Alcotest.test_case "saturated harvest and drain rates" `Quick
            test_supply_extreme_rates;
          Alcotest.test_case "energy guard bounds" `Quick test_supply_guard_bounds;
          QCheck_alcotest.to_alcotest prop_batched_charge_exact;
        ] );
    ]
