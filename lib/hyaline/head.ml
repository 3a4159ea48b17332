module type OPS = sig
  type t
  type snap

  val backend : string
  val make : unit -> t
  val read : t -> snap
  val enter_faa : t -> snap
  val cas_ref : t -> expected:snap -> int -> bool
  val cas_ptr : t -> expected:snap -> Smr.Hdr.t -> bool
  val href : snap -> int
  val hptr : snap -> Smr.Hdr.t
end

module Dwcas : OPS with type snap = Snap.t = struct
  type t = Snap.t Atomic.t
  type snap = Snap.t

  let backend = "dwcas"
  let make () = Prims.Padded.atomic Snap.zero
  let read = Atomic.get

  let rec enter_faa t =
    let old = Atomic.get t in
    let next = { old with Snap.href = old.Snap.href + 1 } in
    if Atomic.compare_and_set t old next then old else enter_faa t

  (* [expected] is a box previously obtained from [read]/[enter_faa],
     so physical compare-and-set implements the pair CAS.  A
     semantically-equal-but-distinct box only arises if the head
     changed in between, in which case failing is correct. *)
  let cas_ref t ~expected href =
    Atomic.compare_and_set t expected { expected with Snap.href }

  let cas_ptr t ~expected hptr =
    Atomic.compare_and_set t expected { expected with Snap.hptr }

  let href (s : Snap.t) = s.Snap.href
  let hptr (s : Snap.t) = s.Snap.hptr
end

(* The packed single-word backend: the whole [HRef, HPtr] pair lives
   in one immediate OCaml int, [(href lsl index_bits) lor (uid + 1)],
   inside a single [int Atomic.t].  This is the closest OCaml gets to
   the paper's Figure 4 word: [enter_faa] is a literal wait-free
   fetch-and-add of [1 lsl index_bits] and the [cas_*] operations are
   single-word value CASes — no snapshot box is ever allocated.

   Width budget on 63-bit ints: 40 index bits ([uid + 1]; index 0 is
   the [nil] sentinel) and 22 href bits, using 62 of the 63 available
   bits.  [Hdr.uid_capacity] (2^28) exhausts long before the index
   field can overflow, and 2^22 - 1 simultaneous threads in one slot
   exceeds any plausible deployment, so the checked guards in [pack]
   never fire on the hot paths (which are therefore unchecked).

   Unlike [Dwcas], the CAS here is value-based, exactly like the
   hardware cmpxchg16b the paper assumes — and safe for the paper's
   own reason: a uid denotes the same physical header forever
   (Hdr.of_uid; uids survive pool recycling), so a decoded [hptr] is
   the very node the word denotes even across free/recycle ABA.  The
   one exception is a decode landing inside the freed window, which
   yields the registry's tombstone; the insert paths test
   Hdr.is_tombstone and retry rather than CAS (Internal.insert_batch).
   See DESIGN.md §1 and docs/HEAD_BACKENDS.md for the full argument. *)
module Packed = struct
  type t = int Atomic.t
  type snap = int

  let backend = "packed"
  let index_bits = 40
  let href_bits = 22
  let max_index = (1 lsl index_bits) - 1
  let max_href = (1 lsl href_bits) - 1
  let unit_href = 1 lsl index_bits
  let index_of (h : Smr.Hdr.t) = h.Smr.Hdr.uid + 1

  let pack_raw ~href ~index =
    if href < 0 || href > max_href then
      invalid_arg "Head.Packed.pack: href out of range";
    if index < 0 || index > max_index then
      invalid_arg "Head.Packed.pack: index out of range";
    (href lsl index_bits) lor index

  let pack ~href h = pack_raw ~href ~index:(index_of h)
  let href s = s lsr index_bits
  let index s = s land max_index

  let hptr s =
    let i = s land max_index in
    if i = 0 then Smr.Hdr.nil else Smr.Hdr.of_uid (i - 1)

  let with_href s href = (href lsl index_bits) lor (s land max_index)
  let with_hptr s h = s land lnot max_index lor index_of h
  let make () = Prims.Padded.atomic 0
  let read = Atomic.get

  (* Range-checking the FAA would destroy its wait-freedom, so the
     release hot path is unchecked; the debug assert makes an href
     overflow (2^22 simultaneous brackets in one slot) fail loudly in
     checked builds — schedcheck/chaos runs — instead of silently
     carrying into the index bits and decoding a wrong uid. *)
  let enter_faa t =
    let s = Atomic.fetch_and_add t unit_href in
    assert (s lsr index_bits < max_href);
    s

  let cas_ref t ~expected href =
    Atomic.compare_and_set t expected (with_href expected href)

  let cas_ptr t ~expected h =
    Atomic.compare_and_set t expected (with_hptr expected h)
end
