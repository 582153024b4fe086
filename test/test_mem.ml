(* Tests for wn.mem: byte-addressable little-endian memory. *)

open Wn_mem

let test_widths_little_endian () =
  let m = Memory.create ~size:64 in
  Memory.write32 m 0 0xDEADBEEF;
  Alcotest.(check int) "byte 0 is LSB" 0xEF (Memory.read8 m 0);
  Alcotest.(check int) "byte 3 is MSB" 0xDE (Memory.read8 m 3);
  Alcotest.(check int) "low half" 0xBEEF (Memory.read16 m 0);
  Alcotest.(check int) "high half" 0xDEAD (Memory.read16 m 2);
  Alcotest.(check int) "word" 0xDEADBEEF (Memory.read32 m 0);
  Memory.write16 m 8 0x8001;
  Alcotest.(check int) "u16" 0x8001 (Memory.read16 m 8);
  Alcotest.(check int) "s16" (-32767) (Memory.read16_signed m 8);
  Memory.write8 m 12 0xFF;
  Alcotest.(check int) "s8" (-1) (Memory.read8_signed m 12)

let test_truncation () =
  let m = Memory.create ~size:16 in
  Memory.write8 m 0 0x1FF;
  Alcotest.(check int) "byte truncates" 0xFF (Memory.read8 m 0);
  Memory.write16 m 2 0x12345;
  Alcotest.(check int) "half truncates" 0x2345 (Memory.read16 m 2);
  Memory.write32 m 4 (-1);
  Alcotest.(check int) "word wraps" 0xFFFFFFFF (Memory.read32 m 4)

let test_bounds () =
  let m = Memory.create ~size:8 in
  Alcotest.check_raises "read32 past end"
    (Invalid_argument "Memory.read32: address 5 out of bounds") (fun () ->
      ignore (Memory.read32 m 5));
  Alcotest.check_raises "negative address"
    (Invalid_argument "Memory.read8: address -1 out of bounds") (fun () ->
      ignore (Memory.read8 m (-1)))

let test_snapshot_restore () =
  let m = Memory.create ~size:32 in
  Memory.write32 m 0 42;
  let snap = Memory.capture m in
  Memory.write32 m 0 99;
  Memory.restore_image m snap;
  Alcotest.(check int) "restored" 42 (Memory.read32 m 0);
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Memory.restore_image: size mismatch") (fun () ->
      Memory.restore_image (Memory.create ~size:4) snap)

let test_digest () =
  (* The digest is a combine of per-page hashes, so its hex is not the
     flat MD5 of the contents; the contract is equal contents ⇔ equal
     digest, across memories and write histories. *)
  let m = Memory.create ~size:64 in
  Memory.write32 m 0 0xDEADBEEF;
  Memory.write16 m 40 0x1234;
  let twin = Memory.create ~size:64 in
  Memory.write16 m 40 0x1234;
  Memory.write16 twin 40 0x1234;
  Memory.write32 twin 0 0xDEADBEEF;
  Alcotest.(check string) "equal contents, equal digest"
    (Digest.to_hex (Memory.digest twin))
    (Digest.to_hex (Memory.digest m));
  let before = Memory.digest m in
  Memory.write8 m 63 1;
  if Digest.equal before (Memory.digest m) then
    Alcotest.fail "digest must see every byte of the store";
  (* Reading the digest must not copy-on-write or otherwise detach the
     backing store. *)
  Alcotest.(check int) "store still live" 0xDEADBEEF (Memory.read32 m 0);
  (* Multi-page memory: a write in the last, short page changes it. *)
  let big = Memory.create ~size:(Memory.page_bytes * 3 + 5) in
  let d0 = Memory.digest big in
  Memory.write8 big ((Memory.page_bytes * 3) + 4) 7;
  if Digest.equal d0 (Memory.digest big) then
    Alcotest.fail "digest must see the trailing partial page"

let test_capture_restore () =
  let size = (Memory.page_bytes * 2) + 17 in
  let m = Memory.create ~size in
  Memory.write32 m 0 42;
  Memory.write8 m (size - 1) 9;
  let base = Memory.capture m in
  Alcotest.(check int) "image size" size (Memory.image_size base);
  Memory.write32 m 0 99;
  let delta = Memory.capture m in
  Memory.write32 m Memory.page_bytes 1234;
  Memory.restore_image m base;
  Alcotest.(check int) "base restored" 42 (Memory.read32 m 0);
  Alcotest.(check int) "last byte" 9 (Memory.read8 m (size - 1));
  Alcotest.(check bool) "matches base" true (Memory.matches_image m base);
  Alcotest.(check bool) "not delta" false (Memory.matches_image m delta);
  Alcotest.(check string) "image digest agrees with memory digest"
    (Digest.to_hex (Memory.digest m))
    (Digest.to_hex (Memory.image_digest base));
  Memory.restore_image m delta;
  Alcotest.(check int) "delta restored" 99 (Memory.read32 m 0);
  Alcotest.(check int) "untouched page survives" 0
    (Memory.read32 m Memory.page_bytes);
  let other = Memory.create ~size:Memory.page_bytes in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Memory.restore_image: size mismatch") (fun () ->
      Memory.restore_image other base)

let test_stats () =
  let m = Memory.create ~size:32 in
  ignore (Memory.read8 m 0);
  ignore (Memory.read32 m 4);
  Memory.write16 m 8 7;
  Alcotest.(check (pair int int)) "counts" (2, 1) (Memory.read_stats m);
  Memory.reset_stats m;
  Alcotest.(check (pair int int)) "reset" (0, 0) (Memory.read_stats m)

let test_region_blit_fill () =
  let m = Memory.create ~size:32 in
  Memory.blit_in m ~addr:4 (Bytes.of_string "\x01\x02\x03");
  Alcotest.(check int) "blit" 0x030201 (Memory.read32 m 4 land 0xFFFFFF);
  Alcotest.(check string) "region" "\x01\x02\x03"
    (Bytes.to_string (Memory.region m ~addr:4 ~len:3));
  Memory.fill m ~addr:4 ~len:3 0xAA;
  Alcotest.(check int) "fill" 0xAA (Memory.read8 m 5);
  Memory.clear m;
  Alcotest.(check int) "clear" 0 (Memory.read32 m 4)

let prop_rw_roundtrip =
  QCheck.Test.make ~count:300 ~name:"write32/read32 round-trips"
    QCheck.(pair (int_bound 28) (int_bound 0xFFFFFFF))
    (fun (addr, v) ->
      let m = Memory.create ~size:32 in
      Memory.write32 m addr v;
      Memory.read32 m addr = v)

(* ---- paged memory vs a flat-Bytes reference model ----
   The dirty-page machinery must be invisible: any write sequence,
   interleaved with digests and captures (which mutate the tracking
   state), leaves the same contents as plain byte stores, the
   incremental digest equals a from-scratch digest, and delta captures
   round-trip bit-identically to full ones. *)

type op =
  | W8 of int * int
  | W16 of int * int
  | W32 of int * int
  | Blit of int * string
  | Fill of int * int * int

(* Three pages plus a short tail page — exercises page straddles and
   the partial final page. *)
let model_size = (3 * Memory.page_bytes) + 29

let gen_op =
  let open QCheck.Gen in
  frequency
    [
      (3, map2 (fun a v -> W8 (a, v)) (int_bound (model_size - 1)) (int_bound 0xFF));
      (3, map2 (fun a v -> W16 (a, v)) (int_bound (model_size - 2)) (int_bound 0xFFFF));
      ( 3,
        map2
          (fun a v -> W32 (a, v))
          (int_bound (model_size - 4))
          (int_bound 0xFFFFFFFF) );
      ( 1,
        map2
          (fun a s -> Blit (a, s))
          (int_bound (model_size - 300))
          (string_size ~gen:char (1 -- 300)) );
      ( 1,
        map3
          (fun a l v -> Fill (a, l, v))
          (int_bound (model_size - 300))
          (int_bound 300) (int_bound 0xFF) );
    ]

let print_op = function
  | W8 (a, v) -> Printf.sprintf "W8(%d,%#x)" a v
  | W16 (a, v) -> Printf.sprintf "W16(%d,%#x)" a v
  | W32 (a, v) -> Printf.sprintf "W32(%d,%#x)" a v
  | Blit (a, s) -> Printf.sprintf "Blit(%d,%d bytes)" a (String.length s)
  | Fill (a, l, v) -> Printf.sprintf "Fill(%d,%d,%#x)" a l v

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_bound 60) gen_op)

let apply_mem m = function
  | W8 (a, v) -> Memory.write8 m a v
  | W16 (a, v) -> Memory.write16 m a v
  | W32 (a, v) -> Memory.write32 m a v
  | Blit (a, s) -> Memory.blit_in m ~addr:a (Bytes.of_string s)
  | Fill (a, l, v) -> Memory.fill m ~addr:a ~len:l v

let apply_ref b = function
  | W8 (a, v) -> Bytes.set b a (Char.chr (v land 0xFF))
  | W16 (a, v) -> Bytes.set_uint16_le b a (v land 0xFFFF)
  | W32 (a, v) ->
      Bytes.set_uint16_le b a (v land 0xFFFF);
      Bytes.set_uint16_le b (a + 2) ((v lsr 16) land 0xFFFF)
  | Blit (a, s) -> Bytes.blit_string s 0 b a (String.length s)
  | Fill (a, l, v) -> Bytes.fill b a l (Char.chr (v land 0xFF))

(* The whole contents, as raw bytes. *)
let all_bytes m = Memory.region m ~addr:0 ~len:(Memory.size m)

let digest_of_contents b =
  let fresh = Memory.create ~size:(Bytes.length b) in
  Memory.blit_in fresh ~addr:0 b;
  Memory.digest fresh

let prop_model_equiv =
  QCheck.Test.make ~count:200 ~name:"paged ops == flat reference model" arb_ops
    (fun ops ->
      let m = Memory.create ~size:model_size in
      let b = Bytes.make model_size '\000' in
      List.iter
        (fun op ->
          apply_mem m op;
          apply_ref b op)
        ops;
      Bytes.equal (all_bytes m) b)

let prop_incremental_digest =
  QCheck.Test.make ~count:200
    ~name:"incremental digest == from-scratch digest" arb_ops (fun ops ->
      let m = Memory.create ~size:model_size in
      let b = Bytes.make model_size '\000' in
      let ok = ref true in
      let check () =
        if not (Digest.equal (Memory.digest m) (digest_of_contents b)) then
          ok := false
      in
      let recorded = ref [] in
      List.iteri
        (fun i op ->
          apply_mem m op;
          apply_ref b op;
          (* Captures interleave with digests: both consume the dirty
             bits, through different paths. *)
          if i mod 7 = 3 then recorded := (Memory.capture m, Bytes.copy b) :: !recorded;
          (* A restore between two digests rewrites page hashes without
             a rehash: the memoised combined digest must not survive it. *)
          (if i mod 11 = 7 then
             match !recorded with
             | [] -> ()
             | l ->
                 let im, contents = List.nth l (i mod List.length l) in
                 check ();
                 Memory.restore_image m im;
                 Bytes.blit contents 0 b 0 model_size;
                 check ());
          if i mod 5 = 2 then check ())
        ops;
      check ();
      !ok)

let prop_delta_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"delta capture/restore == full capture at random points" arb_ops
    (fun ops ->
      let m = Memory.create ~size:model_size in
      let b = Bytes.make model_size '\000' in
      let recorded = ref [] in
      List.iteri
        (fun i op ->
          apply_mem m op;
          apply_ref b op;
          if i mod 6 = 5 then
            recorded :=
              (Memory.capture m, Memory.capture_full m, Bytes.copy b)
              :: !recorded)
        ops;
      List.for_all
        (fun (delta, full, contents) ->
          Memory.restore_image m delta;
          Bytes.equal (all_bytes m) contents
          && Memory.matches_image m full
          && Digest.equal (Memory.image_digest delta) (Memory.image_digest full)
          && Digest.equal (Memory.digest m) (digest_of_contents contents))
        !recorded)

(* The byte range an op writes. *)
let op_range = function
  | W8 (a, _) -> (a, 1)
  | W16 (a, _) -> (a, 2)
  | W32 (a, _) -> (a, 4)
  | Blit (a, s) -> (a, String.length s)
  | Fill (a, l, _) -> (a, l)

(* [matches_image] skips pages it knows the memory holds (the delta
   baseline's own page objects, unwritten since); it must still agree
   with a flat compare of the contents against every image: delta and
   full captures of this memory and an image of another one.  Checked
   right after a restore, after fresh writes (every other one put back
   at once: a dirty page with equal content, and sometimes a capture
   that moves the baseline), and after undoing all of them. *)
let prop_matches_image_flat =
  QCheck.Test.make ~count:200
    ~name:"matches_image == flat compare after restore and writes"
    QCheck.(triple arb_ops arb_ops small_nat)
    (fun (ops, more, pick) ->
      let m = Memory.create ~size:model_size in
      let b = Bytes.make model_size '\000' in
      let recorded = ref [ (Memory.capture m, Bytes.copy b) ] in
      List.iteri
        (fun i op ->
          apply_mem m op;
          apply_ref b op;
          if i mod 5 = 4 then recorded := (Memory.capture m, Bytes.copy b) :: !recorded;
          if i mod 7 = 6 then
            recorded := (Memory.capture_full m, Bytes.copy b) :: !recorded)
        ops;
      let other = Memory.create ~size:model_size in
      let ob = Bytes.make model_size '\000' in
      List.iter
        (fun op ->
          apply_mem other op;
          apply_ref ob op)
        more;
      recorded := (Memory.capture other, ob) :: !recorded;
      let agrees () =
        Bytes.equal (all_bytes m) b
        && List.for_all
             (fun (im, contents) ->
               Memory.matches_image m im = Bytes.equal b contents)
             !recorded
      in
      let im, contents = List.nth !recorded (pick mod List.length !recorded) in
      Memory.restore_image m im;
      Bytes.blit contents 0 b 0 model_size;
      let after_restore = agrees () in
      let put_back (a, old) =
        Memory.blit_in m ~addr:a old;
        Bytes.blit old 0 b a (Bytes.length old)
      in
      let undo = ref [] in
      List.iteri
        (fun i op ->
          let a, l = op_range op in
          let saved = (a, Bytes.sub b a l) in
          undo := saved :: !undo;
          apply_mem m op;
          apply_ref b op;
          if i mod 2 = 0 then put_back saved;
          if i mod 9 = 8 then ignore (Memory.capture m))
        (List.rev more);
      let after_writes = agrees () in
      List.iter put_back !undo;
      after_restore && after_writes && Bytes.equal b contents && agrees ())

let () =
  Alcotest.run "wn.mem"
    [
      ( "memory",
        [
          Alcotest.test_case "little endian widths" `Quick test_widths_little_endian;
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
          Alcotest.test_case "digest" `Quick test_digest;
          Alcotest.test_case "capture/restore images" `Quick test_capture_restore;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "region/blit/fill" `Quick test_region_blit_fill;
          QCheck_alcotest.to_alcotest prop_rw_roundtrip;
          QCheck_alcotest.to_alcotest prop_model_equiv;
          QCheck_alcotest.to_alcotest prop_incremental_digest;
          QCheck_alcotest.to_alcotest prop_delta_roundtrip;
          QCheck_alcotest.to_alcotest prop_matches_image_flat;
        ] );
    ]
