type t = {
  capacitance : float;
  v_on : float;
  v_off : float;
  v_max : float;
  mutable stored : float; (* joules *)
  mutable on : bool;
}

let energy_at c v = 0.5 *. c *. v *. v

let create ?(capacitance = 10e-6) ?(v_on = 2.3) ?(v_off = 1.8) ?(v_max = 2.5)
    () =
  if capacitance <= 0.0 || v_off <= 0.0 || v_off >= v_on || v_on > v_max then
    invalid_arg "Capacitor.create";
  {
    capacitance;
    v_on;
    v_off;
    v_max;
    stored = energy_at capacitance v_max;
    on = true;
  }

let voltage t = sqrt (2.0 *. t.stored /. t.capacitance)

let energy t = t.stored

let usable_energy t =
  Float.max 0.0 (t.stored -. energy_at t.capacitance t.v_off)

let burst_budget t =
  energy_at t.capacitance t.v_max -. energy_at t.capacitance t.v_off

let restart_budget t =
  energy_at t.capacitance t.v_on -. energy_at t.capacitance t.v_off

let is_on t = t.on

let update_state t =
  let v = voltage t in
  if t.on && v < t.v_off then t.on <- false
  else if (not t.on) && v >= t.v_on then t.on <- true

let drain t joules =
  if joules < 0.0 then invalid_arg "Capacitor.drain";
  t.stored <- Float.max 0.0 (t.stored -. joules);
  update_state t

let harvest t joules =
  if joules < 0.0 then invalid_arg "Capacitor.harvest";
  t.stored <- Float.min (energy_at t.capacitance t.v_max) (t.stored +. joules);
  update_state t

let set_empty t =
  t.stored <- energy_at t.capacitance t.v_off;
  t.on <- false

let set_full t =
  t.stored <- energy_at t.capacitance t.v_max;
  t.on <- true
