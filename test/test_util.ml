(* Unit and property tests for wn.util: subword manipulation, fixed
   point, the deterministic PRNG and statistics. *)

open Wn_util

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Subword ---------------- *)

let test_mask () =
  check_int "mask 1" 1 (Subword.mask 1);
  check_int "mask 4" 0xF (Subword.mask 4);
  check_int "mask 16" 0xFFFF (Subword.mask 16);
  Alcotest.check_raises "mask 0" (Invalid_argument "Subword.mask") (fun () ->
      ignore (Subword.mask 0))

let test_extract_insert () =
  let v = 0xABCD in
  check_int "extract low nibble" 0xD (Subword.extract ~bits:4 ~pos:0 v);
  check_int "extract top nibble" 0xA (Subword.extract ~bits:4 ~pos:3 v);
  check_int "extract low byte" 0xCD (Subword.extract ~bits:8 ~pos:0 v);
  check_int "insert nibble" 0xAB9D (Subword.insert ~bits:4 ~pos:1 ~into:v 0x9);
  check_int "insert truncates" 0xAB9D
    (Subword.insert ~bits:4 ~pos:1 ~into:v 0xF9)

let test_split_combine () =
  let v = 0x1234 in
  Alcotest.(check (list int))
    "split MS first" [ 0x1; 0x2; 0x3; 0x4 ]
    (Subword.split ~bits:4 ~width:16 v);
  check_int "combine inverts" v
    (Subword.combine ~bits:4 (Subword.split ~bits:4 ~width:16 v))

let test_sign_extend () =
  check_int "positive" 5 (Subword.sign_extend ~bits:8 5);
  check_int "negative" (-1) (Subword.sign_extend ~bits:8 0xFF);
  check_int "min" (-128) (Subword.sign_extend ~bits:8 0x80);
  check_int "of_signed round trip" 0xFF (Subword.of_signed ~bits:8 (-1));
  check_int "16-bit negative" (-2) (Subword.to_signed ~bits:16 0xFFFE)

let test_lanes_add () =
  (* 8-bit lanes: carries must not cross lane boundaries. *)
  let a = 0x00FF_00FF and b = 0x0001_0001 in
  check_int "carry cut" 0x0000_0000 (Subword.lanes_add ~lane_bits:8 ~width:32 a b);
  check_int "independent lanes" 0x0102_0304
    (Subword.lanes_add ~lane_bits:8 ~width:32 0x0101_0102 0x0001_0202);
  check_int "lanes_sub borrows cut" 0x00FF_00FF
    (Subword.lanes_sub ~lane_bits:8 ~width:32 0x0000_0000 0x0001_0001)

let test_reconstruct_prefix () =
  let v = 0xABCD in
  check_int "no digits" 0 (Subword.reconstruct_prefix ~bits:4 ~width:16 ~taken:0 v);
  check_int "one digit" 0xA000
    (Subword.reconstruct_prefix ~bits:4 ~width:16 ~taken:1 v);
  check_int "all digits" v
    (Subword.reconstruct_prefix ~bits:4 ~width:16 ~taken:4 v)

let prop_split_combine =
  QCheck.Test.make ~count:500 ~name:"split/combine round-trips"
    QCheck.(pair (int_bound 0xFFFF) (QCheck.oneofl [ 1; 2; 4; 8; 16 ]))
    (fun (v, bits) -> Subword.combine ~bits (Subword.split ~bits ~width:16 v) = v)

let prop_lanes_add_matches_per_lane =
  QCheck.Test.make ~count:500 ~name:"lanes_add equals per-lane modular sums"
    QCheck.(
      triple
        (int_bound 0x3FFF_FFFF)
        (int_bound 0x3FFF_FFFF)
        (QCheck.oneofl [ 4; 8; 16 ]))
    (fun (a, b, lane) ->
      let r = Subword.lanes_add ~lane_bits:lane ~width:32 a b in
      let n = 32 / lane in
      List.for_all
        (fun pos ->
          Subword.extract ~bits:lane ~pos r
          = (Subword.extract ~bits:lane ~pos a + Subword.extract ~bits:lane ~pos b)
            land Subword.mask lane)
        (List.init n Fun.id))

let prop_digit_decomposition =
  (* The algebraic heart of SWP: x = Σ digits · 2^shift, so products
     decompose exactly over digits. *)
  QCheck.Test.make ~count:500 ~name:"digit decomposition is exact"
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (x, y) ->
      let partial bits =
        let n = 16 / bits in
        List.fold_left
          (fun acc pos ->
            acc + (y * Subword.extract ~bits ~pos x lsl (pos * bits)))
          0 (List.init n Fun.id)
      in
      partial 4 land 0xFFFFFFFF = x * y land 0xFFFFFFFF
      && partial 8 land 0xFFFFFFFF = x * y land 0xFFFFFFFF)

(* ---------------- Fixed ---------------- *)

let test_fixed_roundtrip () =
  let fmt = Fixed.q8_8 in
  check_float "1.5 round trips" 1.5 (Fixed.to_float fmt (Fixed.of_float fmt 1.5));
  check_float "negative" (-2.25)
    (Fixed.to_float fmt (Fixed.of_float fmt (-2.25)));
  check_float "resolution" (1.0 /. 256.0) (Fixed.resolution fmt)

let test_fixed_saturation () =
  let fmt = Fixed.q8_8 in
  check_float "saturates high" (Fixed.max_value fmt)
    (Fixed.to_float fmt (Fixed.of_float fmt 1e9));
  check_float "saturates low" (Fixed.min_value fmt)
    (Fixed.to_float fmt (Fixed.of_float fmt (-1e9)))

let test_fixed_arith () =
  let fmt = Fixed.q8_8 in
  let a = Fixed.of_float fmt 2.5 and b = Fixed.of_float fmt 1.5 in
  check_float "mul" 3.75 (Fixed.to_float fmt (Fixed.mul fmt a b));
  check_float "add" 4.0 (Fixed.to_float fmt (Fixed.add fmt a b));
  check_float "sub" 1.0 (Fixed.to_float fmt (Fixed.sub fmt a b))

let prop_fixed_add_exact =
  QCheck.Test.make ~count:300 ~name:"fixed add is exact within range"
    QCheck.(pair (float_range (-50.0) 50.0) (float_range (-50.0) 50.0))
    (fun (x, y) ->
      let fmt = Fixed.q8_8 in
      let ax = Fixed.to_float fmt (Fixed.of_float fmt x) in
      let ay = Fixed.to_float fmt (Fixed.of_float fmt y) in
      let sum = Fixed.to_float fmt (Fixed.add fmt (Fixed.of_float fmt x) (Fixed.of_float fmt y)) in
      abs_float (sum -. (ax +. ay)) < 1e-9)

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of bounds";
    let f = Rng.float rng 3.0 in
    if f < 0.0 || f >= 3.0 then Alcotest.fail "float out of bounds"
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng ~mu:5.0 ~sigma:2.0) in
  let m = Stats.mean xs in
  let sd = sqrt (Stats.variance xs) in
  Alcotest.(check (float 0.1)) "mean" 5.0 m;
  Alcotest.(check (float 0.1)) "sigma" 2.0 sd

let test_rng_split_independent () =
  let rng = Rng.create 3 in
  let child = Rng.split rng in
  let a = Rng.next_int64 rng and b = Rng.next_int64 child in
  if a = b then Alcotest.fail "split streams coincide"

(* Regression: [Rng.int] used a bare [mod] over the 62-bit draw, so for
   bound 3*2^60 the residues below 2^60 had two preimages (probability
   1/2 instead of 1/3).  Rejection sampling restores uniformity. *)
let test_rng_int_unbiased () =
  let rng = Rng.create 99 in
  let bound = 0x3000_0000_0000_0000 (* 3 * 2^60 *) in
  let cutoff = bound / 3 in
  let n = 3000 in
  let below = ref 0 in
  for _ = 1 to n do
    if Rng.int rng bound < cutoff then incr below
  done;
  let frac = float_of_int !below /. float_of_int n in
  (* 1/3 +- ~5 sigma; the biased implementation lands at ~1/2. *)
  if frac < 0.29 || frac > 0.38 then
    Alcotest.failf "biased draw: P(low third) = %.3f, want ~0.333" frac

(* ---------------- Stats ---------------- *)

let test_stats_basics () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "variance" 1.25 (Stats.variance [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  check_float "median even" 2.5 (Stats.median [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "p0" 1.0 (Stats.percentile [| 1.0; 2.0; 3.0 |] 0.0);
  check_float "p100" 3.0 (Stats.percentile [| 1.0; 2.0; 3.0 |] 100.0);
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 4.0 |])

let test_stats_nrmse () =
  let reference = [| 0.0; 10.0 |] in
  check_float "identical is zero" 0.0 (Stats.nrmse ~reference reference);
  let off = [| 1.0; 11.0 |] in
  check_float "uniform offset" 0.1 (Stats.nrmse ~reference off);
  Alcotest.check_raises "length mismatch" (Invalid_argument "Stats.rmse")
    (fun () -> ignore (Stats.rmse ~reference [| 1.0 |]))

(* Regression: the scale floor used to be [Float.max 1.0 scale], which
   silently deflated the error whenever both the reference range and
   max-abs were below 1.0 (normalized sensor outputs). *)
let test_stats_nrmse_small_scale () =
  let reference = [| 0.2; 0.4 |] in
  let output = [| 0.2; 0.3 |] in
  let expected = Stats.rmse ~reference output /. 0.4 in
  check_float "sub-unit scale divides through" expected
    (Stats.nrmse ~reference output);
  (* All-zero reference still guarded: 0/eps, not 0/0. *)
  check_float "all-zero reference" 0.0 (Stats.nrmse ~reference:[| 0.0 |] [| 0.0 |])

(* Float.compare gives the sort a total order: NaNs collect at the
   front instead of poisoning the comparison, so percentiles over the
   finite part remain deterministic. *)
let test_stats_nan_handling () =
  let nan = Float.nan in
  check_float "median ignores leading NaN" 1.0
    (Stats.median [| nan; 1.0; 2.0 |]);
  check_float "p100 with NaN present" 5.0
    (Stats.percentile [| nan; 5.0; 4.0 |] 100.0);
  if not (Float.is_nan (Stats.percentile [| nan; 1.0 |] 0.0)) then
    Alcotest.fail "p0 of a NaN-containing array should be the NaN"

let test_stats_value_range () =
  check_float "spread" 3.0 (Stats.value_range [| 1.0; 4.0; 2.0 |]);
  check_float "singleton" 0.0 (Stats.value_range [| 5.0 |]);
  (* Regression: used to index a.(0) without the empty guard. *)
  Alcotest.check_raises "empty" (Invalid_argument "Stats.value_range")
    (fun () -> ignore (Stats.value_range [||]))

(* The float loops pick what [Stdlib.min]/[max] folds pick, bit for
   bit, with NaN, signed zeros and infinities mixed into the input. *)
let prop_value_range_matches_fold =
  let special =
    QCheck.Gen.oneofl
      [ Float.nan; 0.0; -0.0; Float.infinity; Float.neg_infinity; 1.0; -1.0 ]
  in
  let elt = QCheck.Gen.(frequency [ (1, special); (2, float_range (-1e3) 1e3) ]) in
  QCheck.Test.make ~count:2_000 ~name:"value range matches the min/max fold"
    (QCheck.make
       ~print:QCheck.Print.(array float)
       QCheck.Gen.(array_size (int_range 1 12) elt))
    (fun a ->
      let lo = Array.fold_left min a.(0) a and hi = Array.fold_left max a.(0) a in
      Int64.equal
        (Int64.bits_of_float (hi -. lo))
        (Int64.bits_of_float (Stats.value_range a)))

let prop_median_bounds =
  QCheck.Test.make ~count:300 ~name:"median within min/max"
    QCheck.(array_of_size Gen.(int_range 1 40) (float_range (-100.) 100.))
    (fun a ->
      let m = Stats.median a in
      let lo = Array.fold_left min a.(0) a and hi = Array.fold_left max a.(0) a in
      m >= lo && m <= hi)

let qtests = List.map QCheck_alcotest.to_alcotest
    [ prop_split_combine; prop_lanes_add_matches_per_lane;
      prop_digit_decomposition; prop_fixed_add_exact; prop_median_bounds;
      prop_value_range_matches_fold ]

let () =
  Alcotest.run "wn.util"
    [
      ( "subword",
        [
          Alcotest.test_case "mask" `Quick test_mask;
          Alcotest.test_case "extract/insert" `Quick test_extract_insert;
          Alcotest.test_case "split/combine" `Quick test_split_combine;
          Alcotest.test_case "sign extension" `Quick test_sign_extend;
          Alcotest.test_case "vector lanes" `Quick test_lanes_add;
          Alcotest.test_case "prefix reconstruction" `Quick test_reconstruct_prefix;
        ] );
      ( "fixed",
        [
          Alcotest.test_case "round trip" `Quick test_fixed_roundtrip;
          Alcotest.test_case "saturation" `Quick test_fixed_saturation;
          Alcotest.test_case "arithmetic" `Quick test_fixed_arith;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int unbiased" `Quick test_rng_int_unbiased;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "nrmse" `Quick test_stats_nrmse;
          Alcotest.test_case "nrmse small scale" `Quick test_stats_nrmse_small_scale;
          Alcotest.test_case "NaN handling" `Quick test_stats_nan_handling;
          Alcotest.test_case "value range" `Quick test_stats_value_range;
        ] );
      ("properties", qtests);
    ]
