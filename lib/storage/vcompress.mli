(** Delta compression of historical page images.

    Time splits emit [P_history] images with a rigid sequential layout:
    chains head-first in consecutive slots, cells back-to-back in slot
    order, every version stamped.  [encode] re-encodes such an image as a
    [P_history_compressed] image — one full head record per chain run
    plus per-version deltas (varint time/SN deltas, a byte-range payload
    diff against the newer successor, implicit version pointers) — and
    [decode] reproduces the encoder's input byte for byte.  Every stored
    history page is compressed; plain [P_history] exists only as
    [decode]'s output.

    The compressed image keeps the full 56-byte header (so header-only
    chain walks — history pointer, split time — need no decoding) with
    [slot_count = 0], so stamping sweeps and slot iteration no-op on it.
    Everything past the blob is implicitly zero, which lets the split
    path log the truncated image. *)

val encode : bytes -> bytes
(** [encode plain] compresses the [P_history] image a time split built.
    The result is trimmed to header + blob (the tail of the page is all
    zeros by construction).  Total on split output for pages up to
    16 KiB, Ttimes below 2^48 ms and SNs below 2^21: each version's
    encoding is at least 4 bytes shorter than its plain cell, so the
    image always fits its page (the bound is derived in vcompress.ml).
    @raise Invalid_argument if [plain] is not a history image with the
    sequential, fully stamped split-output layout, or if its encoding
    would not fit the page — both break an invariant of the split path. *)

val decode : bytes -> bytes
(** [decode b] rebuilds the plain [P_history] image, bit-for-bit equal
    to what [encode] consumed, writing each cell and slot entry straight
    into one fresh page: it allocates that page and nothing per version.
    [b] must be a full page-size frame (as stored: the trimmed logged
    image is zero-filled back to page size by the Op_image redo and the
    buffer-pool write path); the output has [Bytes.length b].
    @raise Invalid_argument if [b] is not a compressed history page.
    @raise Imdb_util.Codec.Out_of_bounds on a corrupt blob: a read past
    the blob, a bad chain length or payload diff, or cells that would
    overrun the slot array of a [Bytes.length b] page. *)

val is_compressed : bytes -> bool

val encoded_size : bytes -> int
(** Meaningful bytes of a compressed image (header + blob); the rest of
    the frame is zero padding. *)
