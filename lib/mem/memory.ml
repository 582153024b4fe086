(* Flat little-endian storage with page-granular dirty tracking.

   The store itself stays one contiguous [Bytes.t] so the hot
   read/write path is unchanged; alongside it each fixed-size page
   carries one metadata byte and one cached MD5:

     bit 0 — page written since the last [capture] (delta tracking)
     bit 1 — cached page hash stale

   Writes set both bits with a single unconditional byte store per
   touched page (branch-free, allocation-free — the machine's
   zero-allocation fast path steps through here).  [digest] rehashes
   only stale pages and combines the per-page hashes; [capture] copies
   only dirty pages, structurally sharing clean ones with the previous
   capture, which is what makes dense keyframe stores cheap.

   The clean-page invariant: a page whose bit 0 is clear holds exactly
   the bytes of the same page of [last_capture], the delta baseline.
   [create], [restore] and [clear] set bit 0 on every page and each
   write sets it on the pages it touches; [capture] and [restore_image]
   leave the store equal to the image they adopt as the baseline and
   clear bit 0 everywhere.  Bit 0 is only ever cleared together with
   bit 1.  [capture]'s sharing, [restore_image]'s skip and
   [matches_image]'s skip all rest on this invariant. *)

let page_shift = 8
let page_bytes = 1 lsl page_shift

type image = {
  im_size : int;
  im_pages : bytes array;
  im_hashes : string array; (* MD5 per page, same indexing as [im_pages] *)
}

type t = {
  store : Bytes.t;
  mutable reads : int;
  mutable writes : int;
  pages : int;
  flags : Bytes.t; (* one metadata byte per page, bits as above *)
  hashes : string array; (* valid where bit 1 is clear *)
  combine : Bytes.t; (* concatenated page hashes, in sync with [hashes] *)
  mutable combined : Digest.t option; (* MD5 of [combine], while unchanged *)
  mutable last_capture : image option; (* delta baseline for [capture] *)
}

let dirty = '\003' (* both bits *)

let create ~size =
  if size <= 0 then invalid_arg "Memory.create";
  let pages = (size + page_bytes - 1) lsr page_shift in
  {
    store = Bytes.make size '\000';
    reads = 0;
    writes = 0;
    pages;
    flags = Bytes.make pages dirty;
    hashes = Array.make pages "";
    combine = Bytes.create (pages * 16);
    combined = None;
    last_capture = None;
  }

let size t = Bytes.length t.store

let check t addr len name =
  if addr < 0 || addr + len > Bytes.length t.store then
    invalid_arg (Printf.sprintf "Memory.%s: address %d out of bounds" name addr)

(* Mark the pages under [addr .. addr+len-1] dirty.  Bounds were
   checked by the caller, so the unsafe page-index stores are in
   range; a multi-byte access spans at most two pages. *)
let touch t addr last =
  Bytes.unsafe_set t.flags (addr lsr page_shift) dirty;
  Bytes.unsafe_set t.flags (last lsr page_shift) dirty

let touch_range t addr len =
  if len > 0 then
    for p = addr lsr page_shift to (addr + len - 1) lsr page_shift do
      Bytes.unsafe_set t.flags p dirty
    done

let read8 t addr =
  check t addr 1 "read8";
  t.reads <- t.reads + 1;
  Char.code (Bytes.get t.store addr)

let read8_signed t addr = Wn_util.Subword.sign_extend ~bits:8 (read8 t addr)

let read16 t addr =
  check t addr 2 "read16";
  t.reads <- t.reads + 1;
  Bytes.get_uint16_le t.store addr

let read16_signed t addr = Wn_util.Subword.sign_extend ~bits:16 (read16 t addr)

(* Composed from two uint16 halves: [Bytes.get_uint16_le] returns an
   immediate int, whereas [get_int32_le] would box an [Int32.t] on
   every word load. *)
let read32 t addr =
  check t addr 4 "read32";
  t.reads <- t.reads + 1;
  Bytes.get_uint16_le t.store addr
  lor (Bytes.get_uint16_le t.store (addr + 2) lsl 16)

let write8 t addr v =
  check t addr 1 "write8";
  t.writes <- t.writes + 1;
  Bytes.unsafe_set t.flags (addr lsr page_shift) dirty;
  Bytes.set t.store addr (Char.chr (v land 0xFF))

let write16 t addr v =
  check t addr 2 "write16";
  t.writes <- t.writes + 1;
  touch t addr (addr + 1);
  Bytes.set_uint16_le t.store addr (v land 0xFFFF)

let write32 t addr v =
  check t addr 4 "write32";
  t.writes <- t.writes + 1;
  touch t addr (addr + 3);
  Bytes.set_uint16_le t.store addr (v land 0xFFFF);
  Bytes.set_uint16_le t.store (addr + 2) ((v lsr 16) land 0xFFFF)

let read_stats t = (t.reads, t.writes)

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0

let set_stats t ~reads ~writes =
  if reads < 0 || writes < 0 then invalid_arg "Memory.set_stats";
  t.reads <- reads;
  t.writes <- writes

(* ------------------------------------------------------------------ *)
(* Pages, hashes, digests                                             *)

let page_off p = p lsl page_shift
let page_len t p = min page_bytes (Bytes.length t.store - page_off p)

(* Rehash page [p] if its cached hash is stale; clears bit 1 only, so
   delta state (bit 0) survives until the next capture. *)
let ensure_hash t p =
  let f = Char.code (Bytes.unsafe_get t.flags p) in
  if f land 2 <> 0 then begin
    let h = Digest.subbytes t.store (page_off p) (page_len t p) in
    t.hashes.(p) <- h;
    Bytes.blit_string h 0 t.combine (p * 16) 16;
    t.combined <- None;
    Bytes.unsafe_set t.flags p (Char.unsafe_chr (f land 1))
  end

(* MD5 over the concatenated per-page MD5s.  Only pages written since
   the previous digest/capture are rehashed, so the per-call cost is
   O(dirty pages) + O(pages) for the scan; the combine is hashed only
   when a page hash changed since the last digest, and otherwise the
   memoised value is returned.  Equal contents still imply equal
   digests (and conversely, modulo MD5 collisions), but the hex values
   differ from a flat MD5 of the store — goldens that print them were
   re-pinned once. *)
let digest t =
  for p = 0 to t.pages - 1 do
    ensure_hash t p
  done;
  match t.combined with
  | Some d -> d
  | None ->
      let d = Digest.bytes t.combine in
      t.combined <- Some d;
      d

(* ------------------------------------------------------------------ *)
(* Images: capture / restore with structural page sharing             *)

let image_size im = im.im_size

let image_digest im =
  let b = Bytes.create (Array.length im.im_hashes * 16) in
  Array.iteri (fun p h -> Bytes.blit_string h 0 b (p * 16) 16) im.im_hashes;
  Digest.bytes b

(* [share = true] reuses the page bytes of the previous capture for
   pages not written since then — a delta keyframe: the new image costs
   O(dirty pages), and a store of many captures keeps one copy of each
   distinct page.  [share = false] copies every page (a full, isolated
   image).  Both observably describe the complete contents; images are
   immutable so sharing is safe.  The baseline is tracked internally
   ([last_capture]) rather than passed by the caller, so interleaved
   captures of different memories can never cross their chains. *)
let capture_gen ~share t =
  for p = 0 to t.pages - 1 do
    ensure_hash t p
  done;
  let prev = if share then t.last_capture else None in
  let im_pages =
    Array.init t.pages (fun p ->
        match prev with
        | Some im when Char.code (Bytes.unsafe_get t.flags p) land 1 = 0 ->
            im.im_pages.(p)
        | _ -> Bytes.sub t.store (page_off p) (page_len t p))
  in
  let im =
    { im_size = size t; im_pages; im_hashes = Array.copy t.hashes }
  in
  Bytes.fill t.flags 0 t.pages '\000';
  t.last_capture <- Some im;
  im

let capture t = capture_gen ~share:true t
let capture_full t = capture_gen ~share:false t

(* The delta baseline's pages, or [||] for a memory that has none. *)
let baseline_pages t =
  match t.last_capture with Some prev -> prev.im_pages | None -> [||]

(* By the clean-page invariant, page [p] already holds [pg]'s bytes
   when [pg] is physically the baseline's page object and the page has
   not been written since the baseline was adopted. *)
let holds_baseline_page t base p pg =
  Array.length base = t.pages
  && pg == Array.unsafe_get base p
  && Char.code (Bytes.unsafe_get t.flags p) land 1 = 0

let restore_image t im =
  if im.im_size <> size t then
    invalid_arg "Memory.restore_image: size mismatch";
  (* O(changed pages) in-place restore: a page the memory already holds
     (see [holds_baseline_page]) skips the blit.  Images from one
     capture chain share most pages, so restoring a machine back and
     forth along a keyframe train costs only the pages that actually
     differ. *)
  let base = baseline_pages t in
  for p = 0 to t.pages - 1 do
    let pg = im.im_pages.(p) in
    if not (holds_baseline_page t base p pg) then begin
      Bytes.blit pg 0 t.store (page_off p) (Bytes.length pg);
      let h = im.im_hashes.(p) in
      t.hashes.(p) <- h;
      Bytes.blit_string h 0 t.combine (p * 16) 16;
      t.combined <- None
    end
  done;
  (* The image's hashes are valid for the restored contents, so a
     digest right after a restore rehashes nothing; the image also
     becomes the delta baseline, so the next capture copies only pages
     the replay actually dirties. *)
  Bytes.fill t.flags 0 t.pages '\000';
  t.last_capture <- Some im

(* [pg] equals the store's bytes from [off] on, compared in place eight
   bytes at a time and then byte by byte over the tail.  No [Bytes.sub]:
   the rejoin probe compares up to a whole image per call, and a copy
   per page would allocate the image's size (6.5 k words on MatAdd) on
   every full match. *)
let page_equal store off pg =
  let n = Bytes.length pg in
  let i = ref 0 in
  while
    !i + 8 <= n && Bytes.get_int64_ne store (off + !i) = Bytes.get_int64_ne pg !i
  do
    i := !i + 8
  done;
  while !i < n && Bytes.get store (off + !i) = Bytes.get pg !i do
    incr i
  done;
  !i = n

(* Allocation-free.  Pages the memory provably holds are accepted
   without a compare, so a candidate image from the same capture chain
   as the last restore costs only the pages dirtied since. *)
let matches_image t im =
  im.im_size = size t
  &&
  let base = baseline_pages t in
  let p = ref 0 in
  while
    !p < t.pages
    &&
    let pg = Array.unsafe_get im.im_pages !p in
    holds_baseline_page t base !p pg || page_equal t.store (page_off !p) pg
  do
    incr p
  done;
  !p = t.pages

let blit_in t ~addr data =
  check t addr (Bytes.length data) "blit_in";
  touch_range t addr (Bytes.length data);
  Bytes.blit data 0 t.store addr (Bytes.length data)

let region t ~addr ~len =
  check t addr len "region";
  Bytes.sub t.store addr len

let fill t ~addr ~len v =
  check t addr len "fill";
  touch_range t addr len;
  Bytes.fill t.store addr len (Char.chr (v land 0xFF))

let clear t =
  Bytes.fill t.store 0 (Bytes.length t.store) '\000';
  Bytes.fill t.flags 0 t.pages dirty
