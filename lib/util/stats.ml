let check_nonempty name a =
  if Array.length a = 0 then invalid_arg name

let mean a =
  check_nonempty "Stats.mean" a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let variance a =
  check_nonempty "Stats.variance" a;
  let m = mean a in
  let acc = Array.fold_left (fun s x -> s +. ((x -. m) *. (x -. m))) 0.0 a in
  acc /. float_of_int (Array.length a)

let rmse ~reference output =
  let n = Array.length reference in
  if n = 0 || Array.length output <> n then invalid_arg "Stats.rmse";
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let d = output.(i) -. reference.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt (!acc /. float_of_int n)

(* [Stdlib.min] and [max] folded over the array, as float-typed loops:
   the same [if acc <= x then acc else x] choice at every element (NaN
   and signed zeros included), without a polymorphic compare per
   element. *)
let value_range a =
  check_nonempty "Stats.value_range" a;
  let lo = ref a.(0) and hi = ref a.(0) in
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    lo := if !lo <= x then !lo else x;
    hi := if !hi >= x then !hi else x
  done;
  !hi -. !lo

let nrmse ~reference output =
  let e = rmse ~reference output in
  let max_abs =
    Array.fold_left (fun m v -> Float.max m (abs_float v)) 0.0 reference
  in
  let scale = Float.max (value_range reference) max_abs in
  (* The epsilon only guards the degenerate all-zero reference (0/0);
     a genuine small scale must divide through, or every reference with
     range and magnitude below 1.0 (normalized sensor outputs) would
     have its error silently deflated. *)
  e /. Float.max 1e-12 scale

let nrmse_pct ~reference output = 100.0 *. nrmse ~reference output

let sorted a =
  let b = Array.copy a in
  (* Float.compare: a total order with NaNs first, and no polymorphic
     comparison (which boxes) on the aggregation hot path. *)
  Array.sort Float.compare b;
  b

let percentile a p =
  check_nonempty "Stats.percentile" a;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile";
  let b = sorted a in
  let n = Array.length b in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then b.(lo)
  else
    let w = rank -. float_of_int lo in
    ((1.0 -. w) *. b.(lo)) +. (w *. b.(hi))

let median a = percentile a 50.0

let geomean a =
  check_nonempty "Stats.geomean" a;
  let acc =
    Array.fold_left
      (fun s x ->
        if x <= 0.0 then invalid_arg "Stats.geomean" else s +. log x)
      0.0 a
  in
  exp (acc /. float_of_int (Array.length a))
