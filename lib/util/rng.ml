type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  (* Rejection sampling over the 62-bit draw: reducing every draw mod
     [bound] over-weights the residues below [2^62 mod bound].  Draws
     past the last whole multiple of [bound] are redrawn; acceptance
     probability is >= 1 - bound/2^62, so for the simulator's small
     bounds a redraw essentially never fires and existing seeded
     streams are unchanged. *)
  (* 2^62 itself overflows the 63-bit native int, so express the
     acceptance region as r <= max_int - (2^62 mod bound), computed
     from max_int = 2^62 - 1 without ever forming 2^62. *)
  let rem = (((max_int mod bound) + 1) mod bound) (* = 2^62 mod bound *) in
  let accept_max = max_int - rem in
  let rec draw () =
    let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
    if r <= accept_max then r mod bound else draw ()
  in
  draw ()

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 significant bits, uniform in [0, 1). *)
  r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let split t = { state = mix64 (next_int64 t) }
