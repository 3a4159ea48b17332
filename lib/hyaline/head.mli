(** Atomic operations on a slot Head — the backend signature.

    Hyaline needs read-modify-write atomicity over the two-word
    [\[HRef, HPtr\]] tuple.  The paper implements it three ways:
    double-width CAS (x86-64 [cmpxchg16b], ARM64), single-width LL/SC
    over a shared reservation granule (PPC/MIPS, §4.4), or
    counter-in-pointer squeezing (SPARC).  The algorithm in
    [Hyaline.Make] is written against this signature so each backend
    is a drop-in module: {!Dwcas} and {!Packed} here, [Llsc_head] for
    the emulated-LL/SC port.

    The snapshot type is abstract per backend — an immutable boxed
    {!Snap.t} for {!Dwcas} (physical-equality CAS) or an immediate
    unboxed int for {!Packed} — and the algorithm reads its fields
    through {!OPS.href}/{!OPS.hptr}, so backends with immediate
    snapshots keep the whole enter/leave bracket allocation-free.

    All operations are atomic with respect to each other.  The [cas_*]
    operations may fail spuriously (returning [false] with the head
    unchanged); callers re-read and retry, which is exactly the
    weak-CAS tolerance the paper's §4.4 relies on. *)

module type OPS = sig
  type t

  type snap
  (** One atomic snapshot of the pair.  Treat as immutable; valid to
      hold across arbitrary delays (the [cas_*] validation catches
      staleness). *)

  val backend : string

  val make : unit -> t
  (** A fresh [{href = 0; hptr = nil}] head on cache lines of its own
      ({!Prims.Padded}), so threads in different slots never share a
      line. *)

  val read : t -> snap
  (** Atomic load of the pair. *)

  val enter_faa : t -> snap
  (** Atomically increment [href] leaving [hptr] intact; return the
      {e pre-increment} snapshot (whose [hptr] becomes the caller's
      handle).  This is the paper's
      [FAA(&Heads[slot], {.HRef=1, .HPtr=0})]. *)

  val cas_ref : t -> expected:snap -> int -> bool
  (** Replace [href] if the pair still equals [expected]. *)

  val cas_ptr : t -> expected:snap -> Smr.Hdr.t -> bool
  (** Replace [hptr] if the pair still equals [expected]. *)

  val href : snap -> int
  (** The snapshot's reference count.  Never allocates. *)

  val hptr : snap -> Smr.Hdr.t
  (** The snapshot's list head ([Hdr.nil] when empty).  Never
      allocates; {!Packed} decodes through the wait-free
      [Smr.Hdr.of_uid] registry, and on a stale snapshot whose head
      node has since been freed the decode yields the registry's dead
      sentinel — callers that CAS against the snapshot must test
      [Smr.Hdr.is_tombstone] and retry from a fresh read (a value CAS
      can ABA-succeed even on a stale snapshot). *)
end

module Dwcas : OPS with type snap = Snap.t
(** Double-width-CAS backend: the pair lives in one [Atomic.t] as an
    immutable {!Snap.t}; compare-and-set on the box is the double-width
    RMW.  The GC pins a snapshot box while any thread still holds it,
    which is why no ABA tag is needed (the paper gets the same effect
    from handles keeping nodes un-recycled).  Every [enter_faa] and
    successful [cas_*] allocates a fresh box — the cost {!Packed}
    exists to remove. *)

module Packed : sig
  include OPS with type t = int Atomic.t and type snap = int

  val index_bits : int
  (** 40: bits of the [uid + 1] index field (index 0 is [Hdr.nil]). *)

  val href_bits : int
  (** 22: bits of the reference-count field; 62 bits total. *)

  val max_index : int
  val max_href : int

  val unit_href : int
  (** [1 lsl index_bits] — the literal fetch-and-add operand of
      [enter_faa], the paper's [{.HRef=1, .HPtr=0}] constant. *)

  val index_of : Smr.Hdr.t -> int
  (** [uid + 1]; 0 for [Hdr.nil]. *)

  val index : snap -> int
  (** The raw index field (no registry decode). *)

  val pack : href:int -> Smr.Hdr.t -> snap
  (** Checked constructor.
      @raise Invalid_argument if [href] or the header's index exceeds
      its field width. *)

  val pack_raw : href:int -> index:int -> snap
  (** {!pack} on a raw index — for tests probing the width
      boundaries without fabricating headers.
      @raise Invalid_argument outside the field widths. *)

  val with_href : snap -> int -> snap
  (** Unchecked field update (hot path; [cas_ref]'s new word). *)

  val with_hptr : snap -> Smr.Hdr.t -> snap
  (** Unchecked field update (hot path; [cas_ptr]'s new word). *)
end
(** Packed single-word backend: the pair is one immediate int,
    [(href lsl index_bits) lor (uid + 1)], in a single
    [int Atomic.t] — the closest OCaml analogue of the paper's
    Figure 4 word.  [enter_faa] is a genuine wait-free single
    fetch-and-add and no operation allocates; [hptr] resolves the
    index through the wait-free [Smr.Hdr.of_uid] registry.  The CAS
    is value-based like the hardware [cmpxchg16b] it models; uid
    permanence (uids are never reassigned, even across pool
    recycling) gives it the same ABA argument as the paper's, with
    the tombstone-decode window closed by the callers (see {!OPS.hptr}).
    What the 63-bit budget gives up vs [cmpxchg16b]: 22-bit HRef
    (4M simultaneous threads per slot) and 40-bit index space — the
    CAS paths check via [pack]; [enter_faa] cannot be range-checked
    without losing its wait-freedom, so it asserts in checked builds
    instead.  See DESIGN.md §1. *)
