type t = {
  capacitance : float;
  (* The three levels, fJ: the least stored energies whose [voltage]
     reaches v_off, v_on and v_max (see [level]). *)
  off_below : int;
  on_from : int;
  full : int;
  mutable stored : int;
  mutable on : bool;
}

let femtojoules j =
  let f = Float.round (j *. 1e15) in
  if f < 0x1p62 then int_of_float f else max_int

let joules fj = float_of_int fj /. 1e15

let energy_at c v = 0.5 *. c *. v *. v

let voltage_of c fj = sqrt (2.0 *. joules fj /. c)

(* The least [n >= 0] with [voltage_of c n >= v].  The voltage is
   monotone in [n] (a conversion, a product, a quotient by a positive
   constant and a square root, each rounded monotonically), and the
   rounded ½Cv² lies within a few units of that least [n], so a walk
   from it finds it in a few steps.  Then [voltage_of c s < v] holds
   exactly when [s < level c v], with no square root. *)
let level c v =
  let reaches n = voltage_of c n >= v in
  let rec down n = if n > 0 && reaches (n - 1) then down (n - 1) else n in
  let rec up n = if reaches n then n else up (n + 1) in
  let n = femtojoules (energy_at c v) in
  if reaches n then down n else up n

let create ?(capacitance = 10e-6) ?(v_on = 2.3) ?(v_off = 1.8) ?(v_max = 2.5)
    () =
  (* Phrased so that NaN fails every comparison; a full charge below
     2^60 fJ rules out infinities in [capacitance] and the voltages and
     keeps every sum of two charges below [max_int]. *)
  if
    not
      (capacitance > 0.0 && v_off > 0.0 && v_off < v_on && v_on <= v_max
      && energy_at capacitance v_max *. 1e15 < 0x1p60)
  then invalid_arg "Capacitor.create";
  let full = level capacitance v_max in
  {
    capacitance;
    off_below = level capacitance v_off;
    on_from = level capacitance v_on;
    full;
    stored = full;
    on = true;
  }

let voltage t = voltage_of t.capacitance t.stored

let energy t = t.stored

let full t = t.full

let off_below t = t.off_below

let on_from t = t.on_from

let burst_budget t = t.full - t.off_below

let restart_budget t = t.on_from - t.off_below

let is_on t = t.on

(* Harvest, then drain, with the latch updated after each: the harvest
   can only turn it on (at [on_from]) and the drain only off (below
   [off_below]).  With [full] below 2^60, amounts below 2^60 on at most
   [full] stored stay far from [max_int]. *)
let charge t ~harvest ~drain =
  if harvest lor drain < 0 then invalid_arg "Capacitor.charge";
  let e = t.stored + harvest in
  let e = if e < t.full then e else t.full in
  if (not t.on) && e >= t.on_from then t.on <- true;
  let e = e - drain in
  let e = if e > 0 then e else 0 in
  t.stored <- e;
  if t.on && e < t.off_below then t.on <- false;
  t.on
[@@inline]

let set_empty t =
  t.stored <- t.off_below;
  t.on <- false

let set_full t =
  t.stored <- t.full;
  t.on <- true
