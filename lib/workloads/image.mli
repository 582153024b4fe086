(** Synthetic grayscale imagery and PGM output for the Conv2d study
    (Figures 2 and 16). *)

val synthesize_precise :
  Wn_util.Rng.t -> width:int -> height:int -> float array
(** A natural-looking test scene: smooth illumination gradient plus a
    few Gaussian blobs and light sensor noise.  Pixels in [0, 255],
    row-major, unquantised — Q8.8 sensor pixels keep the fractional
    bits, so the low byte of each 16-bit sample carries real signal. *)

val gaussian_filter : k:int -> weight_sum:int -> int array
(** A [k]×[k] Gaussian kernel quantised to non-negative integers that
    sum exactly to [weight_sum] (so convolution is a fixed-point scale
    by [weight_sum]).  Row-major, no padding. *)

val pad_image :
  int array -> width:int -> height:int -> pad:int -> stride:int -> int array
(** Embed an image into a zero-padded, [stride]-wide buffer of
    [(height + 2·pad) · stride] elements, offset by [pad] in both axes —
    the power-of-two-stride layout the kernels index. *)

val pad_filter : int array -> k:int -> stride:int -> int array
(** Embed a [k]×[k] filter into a [k·stride] buffer with zero padding
    per row. *)

val write_pgm : path:string -> width:int -> height:int -> float array -> unit
(** Write pixels (any range; linearly rescaled to 0–255) as a binary
    PGM. *)

val nrmse_to_pixels : float array -> scale:float -> float array
(** Divide each raw convolution output by [scale] to recover pixel
    values. *)
