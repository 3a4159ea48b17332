(** Emulated LL/SC reservation granule (paper §4.4 substrate).

    PPC and MIPS expose only single-width load-linked /
    store-conditional, but the hardware reservation covers a whole
    granule (an L1 line or more), so two adjacent words share one
    reservation: an SC to either word fails if {e anything} in the
    granule changed — the "false sharing" §4.4 exploits to get
    double-width atomicity from single-width instructions.

    This module emulates exactly that semantics for a granule holding
    the [\[HRef, HPtr\]] pair: {!ll} opens a reservation over the whole
    granule, an ordinary load of the other word is the paper's
    dependency-ordered [load], and {!sc} succeeds only if the granule
    is untouched since the matching {!ll}.  Spurious SC failures — real
    LL/SC may fail for cache-pressure reasons — are injected at a
    configurable rate so the retry paths the paper's inline assembly
    must tolerate are actually exercised. *)

type t
(** A reservation granule holding an [href] word and an [hptr] word. *)

type token
(** A reservation opened by {!ll}; consumed by {!sc}. *)

val make : ?spurious_every:int -> unit -> t
(** [make ()] returns a granule initialized to [{href = 0;
    hptr = Hdr.nil}].  If [spurious_every = n > 0], roughly every n-th
    [sc] fails spuriously (deterministic counter, contention-
    independent).  [0] (default) disables injection.  The granule's
    state word sits on cache lines of its own ({!Prims.Padded}). *)

val ll : t -> token
(** Open a reservation and atomically read the granule. *)

val href : token -> int
(** The [href] word as read by the [ll] (the "LL'd word" or the
    dependent [load], depending on which CAS flavour is emulated). *)

val hptr : token -> Smr.Hdr.t
(** The [hptr] word as read by the [ll]. *)

val sc : t -> token -> href:int -> hptr:Smr.Hdr.t -> bool
(** [sc g tok ~href ~hptr] stores both words iff the granule has not
    been modified since [tok] was obtained (and the spurious-failure
    injector spares it).  A faithful single-width SC writes one word;
    writing both on success is equivalent here because success proves
    exclusive ownership of the granule. *)

val peek : t -> int * Smr.Hdr.t
(** Plain atomic read of the granule without opening a reservation. *)
