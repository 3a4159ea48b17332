(** Blocks on cache lines of their own.

    Two domains that write words lying on one cache line bounce that
    line between their cores on every write, even though they never
    touch each other's word (false sharing).  OCaml allocates small
    blocks back to back, so per-thread words built by [Array.init] or
    [Atomic.make] in a row share lines.  [copy] re-allocates a block
    with {!spare} unused words after its fields: with the header that
    keeps the hot fields of any two padded blocks more than 128 bytes
    apart, beyond one 64-byte line and the adjacent-line prefetcher's
    pair.

    OCaml 5.2 has [Atomic.make_contended] for the atomic case; this
    switch runs 5.1.1, which has not.  Once it is OCaml >= 5.2,
    {!atomic} becomes [Atomic.make_contended].

    A padded block behaves as the original for field access and the
    [Atomic] operations.  Its [Obj.size] is larger, so it must not be
    an array (its [Array.length] would count the padding), and
    polymorphic comparison and hashing see the extra words. *)

val spare : int
(** Unused words appended after the fields: 15. *)

val copy : 'a -> 'a
(** [copy b] is a fresh block with [b]'s tag and fields followed by
    {!spare} unused words.  [b] itself is left as it was; callers keep
    only the copy.  Meant for records and [Atomic.t] cells.
    @raise Invalid_argument on an immediate value, a float array or
    all-float record, a no-scan block (string, bytes, custom, abstract),
    or a closure, lazy, object or continuation block. *)

val atomic : 'a -> 'a Atomic.t
(** [atomic v] is [copy (Atomic.make v)]. *)
