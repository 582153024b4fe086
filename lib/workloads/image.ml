open Wn_util

let synthesize_precise rng ~width ~height =
  let blobs =
    List.init 4 (fun _ ->
        let cx = Rng.float rng (float_of_int width) in
        let cy = Rng.float rng (float_of_int height) in
        let amp = 60.0 +. Rng.float rng 120.0 in
        let sigma = 2.0 +. Rng.float rng (float_of_int (min width height) /. 4.0) in
        (cx, cy, amp, sigma))
  in
  let gradient_angle = Rng.float rng (2.0 *. Float.pi) in
  let gx = cos gradient_angle and gy = sin gradient_angle in
  Array.init (width * height) (fun i ->
      let x = float_of_int (i mod width) and y = float_of_int (i / width) in
      let base =
        40.0
        +. (60.0 *. ((gx *. x /. float_of_int width) +. (gy *. y /. float_of_int height) +. 1.0)
            /. 2.0)
      in
      let blob_sum =
        List.fold_left
          (fun acc (cx, cy, amp, sigma) ->
            let d2 = ((x -. cx) ** 2.0) +. ((y -. cy) ** 2.0) in
            acc +. (amp *. exp (-.d2 /. (2.0 *. sigma *. sigma))))
          0.0 blobs
      in
      let noise = Rng.gaussian rng ~mu:0.0 ~sigma:3.0 in
      let v = base +. blob_sum +. noise in
      Float.max 0.0 (Float.min 255.0 v))

let gaussian_filter ~k ~weight_sum =
  if k <= 0 || k mod 2 = 0 then invalid_arg "Image.gaussian_filter";
  let sigma = float_of_int k /. 5.0 in
  let c = float_of_int (k / 2) in
  let raw =
    Array.init (k * k) (fun i ->
        let x = float_of_int (i mod k) -. c and y = float_of_int (i / k) -. c in
        exp (-.((x *. x) +. (y *. y)) /. (2.0 *. sigma *. sigma)))
  in
  let total = Array.fold_left ( +. ) 0.0 raw in
  let scaled = Array.map (fun w -> w /. total *. float_of_int weight_sum) raw in
  let ints = Array.map (fun w -> int_of_float (Float.floor w)) scaled in
  (* Largest-remainder quantisation: hand the leftover units to the taps
     with the largest fractional parts (centre first on ties) so the
     weights sum to exactly [weight_sum] and keep their ordering. *)
  let centre = (k / 2 * k) + (k / 2) in
  let leftover = weight_sum - Array.fold_left ( + ) 0 ints in
  if leftover < 0 then invalid_arg "Image.gaussian_filter: weight_sum too small";
  let order =
    List.init (k * k) Fun.id
    |> List.sort (fun i j ->
           let fi = scaled.(i) -. Float.floor scaled.(i)
           and fj = scaled.(j) -. Float.floor scaled.(j) in
           if fi <> fj then compare fj fi
           else if i = centre then -1
           else if j = centre then 1
           else compare i j)
  in
  List.iteri (fun rank i -> if rank < leftover then ints.(i) <- ints.(i) + 1) order;
  (* Keep the mode at the centre: shift any unit that overtook it. *)
  Array.iteri
    (fun i w ->
      if i <> centre && w > ints.(centre) then begin
        ints.(i) <- w - 1;
        ints.(centre) <- ints.(centre) + 1
      end)
    ints;
  ints

let pad_image img ~width ~height ~pad ~stride =
  if stride < width + (2 * pad) then invalid_arg "Image.pad_image: stride too small";
  let out = Array.make ((height + (2 * pad)) * stride) 0 in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      out.(((y + pad) * stride) + x + pad) <- img.((y * width) + x)
    done
  done;
  out

let pad_filter f ~k ~stride =
  if stride < k then invalid_arg "Image.pad_filter: stride too small";
  let out = Array.make (k * stride) 0 in
  for y = 0 to k - 1 do
    for x = 0 to k - 1 do
      out.((y * stride) + x) <- f.((y * k) + x)
    done
  done;
  out

let write_pgm ~path ~width ~height pixels =
  if Array.length pixels <> width * height then invalid_arg "Image.write_pgm";
  let lo = Array.fold_left Float.min pixels.(0) pixels in
  let hi = Array.fold_left Float.max pixels.(0) pixels in
  let range = if hi > lo then hi -. lo else 1.0 in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "P5\n%d %d\n255\n" width height;
      Array.iter
        (fun v ->
          let g = int_of_float ((v -. lo) /. range *. 255.0) in
          output_char oc (Char.chr (max 0 (min 255 g))))
        pixels)

let nrmse_to_pixels raw ~scale = Array.map (fun v -> v /. scale) raw
