(** Crystalline(-L): the Hyaline authors' wait-free successor
    (Nikolaev & Ravindran, PAPERS.md), built from this repo's Hyaline
    toolbox.

    One reservation word per thread packs the thread's protection era
    with the head of the retirement list other threads have handed it
    — the Fig. 4 single-word shape with the presence bit widened to an
    era.  Enter/leave/trim are single-word exchanges of constants
    (wait-free); deref raises the era in place ([cas_era]); retire is
    one bounded pass over the k words, skipping any whose era predates
    the batch's minimum birth — which is both the wait-freedom of the
    pass (an idle or stale word costs one read) and the robustness
    bound (a stalled reader only ever accumulates batches containing a
    node born before its frozen era).  See docs/CRYSTALLINE.md.

    [Tracker.S] notes: [robust = true]; [transparent = false] (a
    dedicated word per thread).  This implements the -L (lock-free
    insertion, wait-free era skip) flavour; -W's wide-CAS helping is
    out of scope. *)

(** The reservation word — era merged with the incoming list head.
    [exchange] is wait-free; the CASes may fail only under a
    concurrent insert. *)
module type WORD = sig
  type t
  type word

  val backend : string

  val max_era : int
  (** Largest publishable era; the tracker's clock saturates here. *)

  val make : unit -> t
  (** A fresh idle word on cache lines of its own ({!Prims.Padded}). *)

  val get : t -> word

  val exchange : t -> era:int -> word
  (** Swap in [⟨era, nil⟩]; return the old word ([~era:0] = leave). *)

  val cas_era : t -> expected:word -> int -> bool
  (** Replace the era, keeping the list pointer (deref's raise). *)

  val cas_insert : t -> expected:word -> Smr.Hdr.t -> bool
  (** Replace the list pointer, keeping the era (retire's insert). *)

  val era : word -> int

  val empty : word -> bool
  (** [empty w] iff [hptr w] is nil, without materializing the
      pointer. *)

  val hptr : word -> Smr.Hdr.t
end

module Boxed_word : WORD
(** An immutable [{era; hptr}] pair in one [Atomic.t],
    compare-and-set on the box (GC-pinned, so no ABA tag). *)

module Packed_word : WORD
(** [Head.Packed]'s layout verbatim: era in the 22-bit href field,
    [uid + 1] in the 40-bit index field, decoded through the wait-free
    [Smr.Hdr.of_uid] registry.  Nothing allocates; the value CAS is
    ABA-safe by uid permanence, with the tombstone-decode window
    closed in the retire path (see DESIGN.md §1). *)

module Make (_ : WORD) : Tracker_ext.S

include Tracker_ext.S
(** Over {!Boxed_word} — the family's default backend. *)

module Packed : Tracker_ext.S
(** Over {!Packed_word}: allocation-free brackets. *)
