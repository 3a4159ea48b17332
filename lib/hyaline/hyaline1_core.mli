(** Shared implementation of Hyaline-1 and Hyaline-1S (Figures 4-5).
    Use [Hyaline1] / [Hyaline1s]; this functor selects whether the
    birth-era machinery (the [-S] robustness extension) is compiled in
    and which representation of the merged Fig. 4 word is used. *)

(** The merged single word of Fig. 4 — the owner's presence bit packed
    with the retirement-list head.  All operations are single-word
    atomics; [exchange_*] are wait-free. *)
module type WORD = sig
  type t
  type word

  val backend : string

  val make : unit -> t
  (** A fresh idle word on cache lines of its own ({!Prims.Padded}). *)

  val get : t -> word

  val exchange_active : t -> word
  (** Swap in [{active = true; hptr = nil}]; return the old word
      (enter's wait-free publication). *)

  val exchange_idle : t -> word
  (** Swap in [{active = false; hptr = nil}]; return the old word
      (leave's wait-free detach). *)

  val cas_insert : t -> expected:word -> Smr.Hdr.t -> bool
  (** Replace the pointer field, keeping the bit, if the word still
      equals [expected] (retire's insertion). *)

  val active : word -> bool

  val empty : word -> bool
  (** [empty w] iff [hptr w] is nil, without materializing the pointer
      (the packed backend's empty-bracket fast path). *)

  val hptr : word -> Smr.Hdr.t
end

module Boxed_word : WORD
(** The historical default: an immutable [{active; hptr}] pair in one
    [Atomic.t], compare-and-set on the box (GC-pinned, so no ABA
    tag).  Each insertion allocates a fresh pair. *)

module Packed_word : WORD
(** Fig. 4's word for real: bit 0 is the presence bit, the upper bits
    hold [uid + 1] (0 = nil) decoded through the wait-free
    [Smr.Hdr.of_uid] registry.  Nothing allocates; the value-based CAS
    is ABA-safe because uids permanently denote one physical header
    (see DESIGN.md §1). *)

module Make
    (_ : sig
      val eras : bool
    end)
    (_ : WORD) : Tracker_ext.S
