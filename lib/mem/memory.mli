(** Byte-addressable data memory, little-endian.

    Energy-harvesting platforms pair a small SRAM/FRAM with the core; the
    paper's two system models differ in what survives an outage:
    checkpoint-based volatile processors keep *main memory* non-volatile
    (FRAM) but lose registers, while non-volatile processors keep
    everything.  This module is plain storage; volatility policy lives in
    [wn.runtime].  Reads and writes are counted for the evaluation's
    instruction-mix statistics.

    Storage is one flat byte array, but the module additionally tracks
    writes at page granularity ({!page_bytes} bytes per page) with a
    cached MD5 per page.  That makes {!digest} cost proportional to the
    pages written since the previous digest, and {!capture} cost
    proportional to the pages written since the previous capture — the
    foundation for incremental boundary digests and delta keyframes in
    the fault-injection engine. *)

type t

val page_bytes : int
(** Dirty-tracking granularity in bytes (a power of two). *)

val create : size:int -> t
(** Zero-initialised memory of [size] bytes. *)

val size : t -> int

val read8 : t -> int -> int
val read8_signed : t -> int -> int
val read16 : t -> int -> int
val read16_signed : t -> int -> int
val read32 : t -> int -> int
(** Unsigned 32-bit pattern (fits an OCaml int). Addresses need not be
    aligned.  All reads/writes raise [Invalid_argument] out of bounds. *)

val write8 : t -> int -> int -> unit
val write16 : t -> int -> int -> unit
val write32 : t -> int -> int -> unit

val read_stats : t -> int * int
(** [(reads, writes)] performed since creation or [reset_stats]. *)

val reset_stats : t -> unit

val set_stats : t -> reads:int -> writes:int -> unit
(** Overwrite the access counters (snapshot/restore support — a
    restored machine must report the counters it had at capture).
    Raises [Invalid_argument] on negative counts. *)

val digest : t -> Digest.t
(** Content digest: MD5 over the concatenation of per-page MD5s.
    Memories of equal size have equal digests iff their contents are
    equal (modulo MD5 collisions, as before).  Cost is O(pages written
    since the last digest or capture) plus a hash of the small combine
    buffer — not O(size) — and the combine hash is memoised until a
    page is rehashed or restored.  Note the hex value differs from a
    flat MD5 of the contents. *)

(** {1 Images: O(dirty) capture and restore}

    An {!image} is an immutable copy of the full contents, stored
    page-wise.  {!capture} shares clean pages with the memory's
    previous capture (a delta keyframe), so a sequence of captures
    costs O(pages written between them) in both time and space while
    each image still describes the complete state — restoring never
    needs to walk a chain. *)

type image

val capture : t -> image
(** Capture the contents, sharing pages unwritten since the previous
    {!capture}/{!capture_full}/{!restore_image} of this memory.  Clears
    the dirty tracking. *)

val capture_full : t -> image
(** Like {!capture} but every page is copied — an isolated image with
    no structural sharing. *)

val restore_image : t -> image -> unit
(** Overwrite contents from an image of equal size (raises
    [Invalid_argument] otherwise).  Adopts the image's page hashes, so
    an immediately following {!digest} rehashes nothing, and makes the
    image the new delta baseline for {!capture}. *)

val matches_image : t -> image -> bool
(** True iff the current contents equal the image, compared in place
    without allocating.  A page the image shares physically with the
    memory's delta baseline, and which has not been written since that
    baseline was adopted, is accepted without a compare. *)

val image_size : image -> int

val image_digest : image -> Digest.t
(** Digest of an image's contents; agrees with {!digest} of a memory
    holding the same bytes. *)

val blit_in : t -> addr:int -> bytes -> unit
(** Load raw bytes at [addr] (program data segment initialisation). *)

val region : t -> addr:int -> len:int -> bytes
(** Copy of the [len] bytes starting at [addr]. *)

val fill : t -> addr:int -> len:int -> int -> unit
(** Fill a region with a byte value. *)

val clear : t -> unit
