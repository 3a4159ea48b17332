(** The per-block SMR header.

    Every reclaimable node embeds one [Hdr.t], mirroring the C test
    framework of Wen et al. (PPoPP'18) where blocks carry the union of
    all schemes' per-block state.  The header provides:

    - the three link words of a Hyaline batch node — {!type-t.next}
      (per-slot retirement-list link), {!type-t.batch_link} (chain of
      the batch's nodes) and {!type-t.ref_node} (pointer to the node
      carrying the batch's NRef counter);
    - the batch reference counter {!type-t.nref} (meaningful on the
      dedicated NRef node only) and the per-batch [Adjs] snapshot used
      by adaptive Hyaline-S (paper §4.3);
    - [birth] and [retire_era] stamps for the era-based schemes
      (HE, IBR, Hyaline-S);
    - a [free_hook] that returns the {e enclosing} node to its memory
      pool; and
    - a lifecycle [state] word giving reclamation observable semantics:
      illegal transitions (double retire, double free) raise, and
      readers can assert a block they dereference has not been freed —
      the manual-heap failure the GC would otherwise mask.

    Lists of headers are [nil]-terminated with the distinguished
    sentinel {!nil} (compared with [==]) rather than [option], to avoid
    allocating an ['a option] box per link update on hot paths. *)

type t = {
  uid : int;  (** unique id, assigned at creation; for debugging *)
  mutable next : t;
      (** Hyaline: successor in one slot's retirement list; baselines:
          successor in a thread-local limbo list. *)
  mutable batch_link : t;
      (** Hyaline: next node of the same batch ([nil]-terminated). *)
  mutable ref_node : t;
      (** Hyaline: the batch node that carries {!nref}.  On the NRef
          node itself this field is unused (the paper repurposes it to
          store the batch's [Adjs]; we keep a separate immediate field
          {!adjs} since OCaml words are typed). *)
  nref : int Atomic.t;
      (** Batch reference count, relaxed: transiently negative (or,
          viewed unsigned, huge) until all adjustments land. *)
  mutable adjs : int;
      (** Adaptive Hyaline-S: the [Adjs] constant captured when the
          batch was retired (paper §4.3). *)
  mutable birth : int;  (** birth era (HE / IBR / Hyaline-S) *)
  mutable retire_era : int;  (** retire era (HE / IBR) *)
  mutable retire_ns : int;
      (** Observability: wall timestamp of the retire, stamped by
          {!Tracker.retire_block} only when a probe is installed; the
          free funnel reports [now - retire_ns] as the block's
          reclamation lag. *)
  mutable free_hook : unit -> unit;
      (** Returns the enclosing block to its pool.  A header starts with
          {!no_hook}; a pooled node's owner binds the hook the first time
          the pool hands the node out (when it still reads [== no_hook])
          and never again, since recycling keeps the node in the same
          pool.  Binding it on every allocation would build a closure
          per allocation. *)
  state : int Atomic.t;  (** lifecycle word, see {!section-lifecycle} *)
}

val nil : t
(** Sentinel terminating header lists.  Physically unique; never
    retire, free or link it. *)

val is_nil : t -> bool

val no_hook : unit -> unit
(** The no-op [free_hook] every header starts with.  Compare with [==]
    to learn whether a header's hook is still unbound. *)

val create : unit -> t
(** [create ()] returns a fresh header in the {e live} state with all
    links set to {!nil} and [free_hook] set to {!no_hook}.  The header is
    published in the uid registry (see {!of_uid}) before it is
    returned.
    @raise Failure if the registry's index space ({!uid_capacity}
    headers) is exhausted. *)

(** {2 Uid registry}

    A wait-free [uid -> header] directory used by the packed
    single-word Head backend, which encodes a header pointer as
    [uid + 1] inside an immediate int.  Uids are assigned once by
    {!create} and survive pool recycling ([set_live] never reassigns
    them), so a uid denotes the same physical header for that header's
    whole existence — the property that makes value-based CAS on
    packed words ABA-safe.  The registry's reference is strong while
    the header is live or retired (a packed head may be the only thing
    keeping a retirement list reachable); {!set_freed} drops it, so a
    freed header is retained only by its pool and an abandoned pool is
    collectable, headers and all.

    Two costs of that design to keep in mind for long-running
    processes: only {!set_freed} unpins, so headers that are still
    live or retired when a structure is abandoned — including {e
    every} header managed by a non-reclaiming scheme such as [Leaky]
    — stay rooted by the registry for the life of the process; and
    every {!create} permanently consumes one of the {!uid_capacity}
    uids (recycling reuses headers, it does not mint uids back), after
    which [create] raises.  Tear trackers down by driving them to full
    reclamation (flush + final frees) and recycle headers through
    pools rather than creating fresh ones per short-lived structure —
    see the teardown note in [Tracker]. *)

val uid_capacity : int
(** Total number of uids the registry can hold (2{^28}); {!create}
    raises beyond it.  Well under the packed backend's 40-bit index
    budget, so registry exhaustion — not encoding overflow — is the
    binding limit.  Uids are never returned: see the pinning note
    above. *)

val of_uid : int -> t
(** [of_uid i] returns the header whose [uid] is [i].  Wait-free up to
    an in-flight publication: {!create} reserves the uid strictly
    before publishing the header, so [of_uid] may briefly spin on the
    specific cell of a header whose creation is in progress.  If the
    header is currently freed the result is the dead sentinel
    ({!is_tombstone}); that can only happen when decoding a stale
    snapshot of a head word (the node left the head before it could
    be freed).  Staleness does {e not} guarantee a later value CAS
    against that snapshot fails — the uid can be recycled and the
    word can revisit its old bit pattern — so callers intending to
    CAS must check {!is_tombstone} first and retry from a fresh read.
    @raise Invalid_argument if [i] is negative or beyond the last
    reserved uid. *)

val is_tombstone : t -> bool
(** Whether a header obtained from {!of_uid} is the dead sentinel
    standing in for a currently-freed uid.  Packed-head insert paths
    must test this before using a decoded predecessor in a CAS: the
    tombstone marks the one window in which the snapshot is provably
    stale yet its value CAS could still ABA-succeed (never retire,
    free or link the sentinel). *)

(** {2:lifecycle Lifecycle}

    [live] —(retire)→ [retired] —(free)→ [freed] —(reuse)→ [live].
    The checks below are always on: they are single atomic exchanges
    and form the use-after-free detector of the test suite. *)

exception Lifecycle of string * t
(** Raised on an illegal transition or a failed liveness check.  The
    string names the violated rule (["double-retire"],
    ["double-free"], ["use-after-free"]). *)

val set_live : t -> unit
(** Reset to live on (re)allocation; also clears links and eras and
    republishes the header in the uid registry. *)

val set_retired : t -> unit
(** @raise Lifecycle on double retire or retire-after-free. *)

val set_freed : t -> unit
(** Transition to freed; legal from both [retired] (the normal SMR
    path) and [live] (direct teardown of never-retired blocks).  Drops
    the uid registry's strong reference (see {!of_uid}).
    @raise Lifecycle on double free. *)

val check_not_freed : string -> t -> unit
(** [check_not_freed ctx h] raises {!Lifecycle} if [h] is freed.
    Called by trackers on dereference when UAF checking is enabled;
    [nil] always passes. *)

val is_freed : t -> bool

val is_live : t -> bool
(** Whether the header is in the live state: neither retired nor
    freed. *)

val pp : Format.formatter -> t -> unit
(** Debug printer: uid, state, nref, eras. *)
