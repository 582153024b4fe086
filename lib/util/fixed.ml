type format = { width : int; frac : int }

let make ~width ~frac =
  if frac < 0 || frac >= width || width > 32 then invalid_arg "Fixed.make";
  { width; frac }

let q8_8 = make ~width:16 ~frac:8

let scale fmt = float_of_int (1 lsl fmt.frac)

let max_signed fmt = (1 lsl (fmt.width - 1)) - 1
let min_signed fmt = -(1 lsl (fmt.width - 1))

let min_value fmt = float_of_int (min_signed fmt) /. scale fmt
let max_value fmt = float_of_int (max_signed fmt) /. scale fmt
let resolution fmt = 1.0 /. scale fmt

let of_float fmt x =
  let scaled = Float.round (x *. scale fmt) in
  let clamped =
    if scaled > float_of_int (max_signed fmt) then max_signed fmt
    else if scaled < float_of_int (min_signed fmt) then min_signed fmt
    else int_of_float scaled
  in
  Subword.of_signed ~bits:fmt.width clamped

let to_float fmt v =
  float_of_int (Subword.to_signed ~bits:fmt.width v) /. scale fmt

let mul fmt a b =
  let sa = Subword.to_signed ~bits:fmt.width a
  and sb = Subword.to_signed ~bits:fmt.width b in
  Subword.of_signed ~bits:fmt.width ((sa * sb) asr fmt.frac)

let add fmt a b =
  Subword.truncate ~bits:fmt.width
    (Subword.to_signed ~bits:fmt.width a + Subword.to_signed ~bits:fmt.width b)

let sub fmt a b =
  Subword.truncate ~bits:fmt.width
    (Subword.to_signed ~bits:fmt.width a - Subword.to_signed ~bits:fmt.width b)
