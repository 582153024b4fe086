(* Stored energy lives in a one-field float record: OCaml keeps such a
   record's float flat, so a write stores the bits in place where a
   mutable float field of the mixed record below would box every new
   value. *)
type level = { mutable joules : float }

type t = {
  capacitance : float;
  v_on : float;
  e_full : float; (* ½C v_max², the regulator clamp *)
  e_empty : float; (* ½C v_off², where [set_empty] leaves the charge *)
  (* Exact latch thresholds: the least stored energies whose [voltage]
     reaches v_off and v_on (see [threshold]). *)
  off_below : float;
  on_from : float;
  stored : level;
  mutable on : bool;
}

let energy_at c v = 0.5 *. c *. v *. v

let voltage_of c s = sqrt (2.0 *. s /. c)

(* The least non-negative float [s] with [voltage_of c s >= v].  The
   voltage is monotone in [s] (a product, a quotient by a positive
   constant and a square root, each rounded monotonically), and
   non-negative floats order as their bit patterns, so a bisection over
   the patterns from +0 (voltage 0 < v) to +inf (voltage +inf >= v)
   finds it in at most 64 steps.  Then [voltage_of c s < v] holds
   exactly when [s < threshold c v], with no square root.
   [energy_at c v] is not this float: its rounding can land a few ulps
   either side of it. *)
let threshold c v =
  let reaches bits = voltage_of c (Int64.float_of_bits bits) >= v in
  let rec search lo hi =
    if Int64.sub hi lo <= 1L then hi
    else
      let mid = Int64.add lo (Int64.div (Int64.sub hi lo) 2L) in
      if reaches mid then search lo mid else search mid hi
  in
  Int64.float_of_bits (search 0L (Int64.bits_of_float Float.infinity))

let create ?(capacitance = 10e-6) ?(v_on = 2.3) ?(v_off = 1.8) ?(v_max = 2.5)
    () =
  let e_full = energy_at capacitance v_max in
  (* Phrased so that NaN fails every comparison; a finite full charge
     rules out infinities in [capacitance] and the voltages. *)
  if
    not
      (capacitance > 0.0 && v_off > 0.0 && v_off < v_on && v_on <= v_max
      && Float.is_finite e_full)
  then invalid_arg "Capacitor.create";
  {
    capacitance;
    v_on;
    e_full;
    e_empty = energy_at capacitance v_off;
    off_below = threshold capacitance v_off;
    on_from = threshold capacitance v_on;
    stored = { joules = e_full };
    on = true;
  }

let voltage t = voltage_of t.capacitance t.stored.joules

let energy t = t.stored.joules

let usable_energy t =
  let u = t.stored.joules -. t.e_empty in
  if u > 0.0 then u else 0.0
[@@inline]

let burst_budget t = t.e_full -. t.e_empty

let restart_budget t = energy_at t.capacitance t.v_on -. t.e_empty

let is_on t = t.on

(* Hysteresis on the exact thresholds: off once the voltage sags below
   v_off, on again once it reaches v_on. *)
let update_state t =
  let e = t.stored.joules in
  if t.on then (if e < t.off_below then t.on <- false)
  else if e >= t.on_from then t.on <- true

(* The clamps here and in [usable_energy] are plain comparisons: on
   any non-NaN input they equal [Float.min e_full e] and
   [Float.max 0.0 e], and every amount is checked to be a number
   ([not (x >= 0.0)] also catches NaN).  [harvest], [drain] and
   [usable_energy] inline into [run] and [affords], so their floats
   stay unboxed there. *)

let drain t joules =
  if not (joules >= 0.0) then invalid_arg "Capacitor.drain";
  let e = t.stored.joules -. joules in
  t.stored.joules <- (if e > 0.0 then e else 0.0);
  update_state t
[@@inline]

let harvest t joules =
  if not (joules >= 0.0) then invalid_arg "Capacitor.harvest";
  let e = t.stored.joules +. joules in
  t.stored.joules <- (if e < t.e_full then e else t.e_full);
  update_state t
[@@inline]

let run t ~power ~clock_hz ~cycle_energy ~cycles =
  let n = float_of_int cycles in
  harvest t (power *. (n /. clock_hz));
  drain t (n *. cycle_energy);
  t.on

let affords t ~cycle_energy ~cycles =
  usable_energy t >= float_of_int cycles *. cycle_energy

let set_empty t =
  t.stored.joules <- t.e_empty;
  t.on <- false

let set_full t =
  t.stored.joules <- t.e_full;
  t.on <- true
