(** Explicit memory pool: the "manual heap" substrate.

    OCaml's runtime is garbage-collected, so a naive port of a safe
    memory reclamation (SMR) scheme would have nothing observable to
    reclaim — a use-after-free bug would be silently masked by the GC
    keeping the record alive.  This pool restores manual-reclamation
    semantics: nodes handed out by {!Make.alloc} are recycled through
    free lists, so {!Make.free}-ing a node that another thread still
    dereferences leads to that node being {e reused} under the reader's
    feet, exactly the failure mode SMR exists to prevent.  The
    {!POOLABLE} hooks let node types flag these events (the SMR
    framework's header records alive/retired/freed states and raises on
    violations in checked builds).

    The pool is lock-free on the fast paths (free-list push/pop via CAS
    on an immutable list; index assignment via fetch-and-add) and keeps
    per-domain caches to avoid a single contended free list.

    Every node receives a small, dense, stable integer {e index} at
    creation.  The pool keeps no index-to-node registry, so an empty
    pool costs a few words whatever its future size.  Packed
    single-word heads (Hyaline-1's "pointer with a squeezed-in bit")
    decode through [Smr.Hdr]'s uid registry instead. *)

exception Injected_oom
(** Raised by {!Make.alloc} while an {!Make.inject_failures} budget is
    armed — the chaos subsystem's allocation-failure fault.  Shared by
    every pool instantiation so fault-handling code can match on it
    without knowing the node type. *)

module type POOLABLE = sig
  type t
  (** The pooled node type. *)

  val create : index:int -> t
  (** [create ~index] allocates a brand-new node carrying the stable
      pool index [index]. *)

  val index : t -> int
  (** [index n] returns the index passed to [create]. *)

  val on_alloc : t -> unit
  (** Called every time the node is handed out (both fresh and
      recycled).  Node types reset their reusable state here and mark
      themselves live. *)

  val on_free : t -> unit
  (** Called when the node is returned to the pool.  Node types mark
      themselves dead here and may raise to signal a double free. *)
end

type stats = {
  created : int;  (** nodes constructed fresh (high-water of distinct nodes) *)
  allocs : int;   (** total [alloc] calls *)
  frees : int;    (** total [free] calls *)
}
(** Snapshot of pool counters; [allocs - frees] is the live count. *)

val pp_stats : Format.formatter -> stats -> unit

module Make (P : POOLABLE) : sig
  type t
  (** A pool of [P.t] nodes, shared between domains. *)

  val create : ?local_cache:int -> unit -> t
  (** [create ()] returns an empty pool.  [local_cache] bounds the
      per-domain private free cache (default [64]; [0] disables
      caching, making every free/alloc hit the shared list — useful in
      deterministic tests). *)

  val alloc : t -> P.t
  (** [alloc t] returns a node, recycling a freed one when available.
      Runs [P.on_alloc] before returning.  On a local-cache miss the
      whole shared free list is taken in one atomic exchange and up to
      [local_cache] nodes are kept locally (surplus is spliced back),
      so a burst of misses pays one shared-list RMW per [local_cache]
      allocations rather than one per node.  Between the exchange and
      the splice-back, other domains observe an empty shared list and
      may construct fresh nodes despite free ones existing — a
      deliberate trade of occasional extra [created] nodes for a
      refill that cannot livelock against concurrent pushers (node
      reuse is a performance property here, never a correctness one).
      @raise Injected_oom while a fault-injection budget is armed (the
      failed call consumes one budget unit and does not count as an
      alloc, so [live] stays exact). *)

  val inject_failures : t -> n:int -> unit
  (** Arm the allocation fault-injection hook: the next [n] calls to
      {!alloc} (pool-wide, any domain) raise {!Injected_oom}.
      Cumulative with any budget still pending.  The disabled hook
      costs a single uncontended atomic load per [alloc].
      @raise Invalid_argument if [n < 0]. *)

  val injected_failures_pending : t -> int
  (** Remaining armed failure budget (0 = hook disabled). *)

  val free : t -> P.t -> unit
  (** [free t n] returns [n] to the pool for reuse.  Runs [P.on_free].
      The caller must guarantee [n] came from [t] and is not freed
      twice (the node's own hooks are expected to check). *)

  val stats : t -> stats
  (** Racy-but-consistent-enough snapshot of the counters. *)

  val live : t -> int
  (** [live t] is [allocs - frees] at the moment of the call, clamped
      at 0 (the counters are read free-side first so a racing
      alloc/free pair cannot drive the difference negative). *)

  val shared_free_length : t -> int
  (** Current length of the shared free list (excludes per-domain
      caches).  Maintained incrementally; racy but never negative.
      While a refill's splice-back is in flight the gauge transiently
      {e over}counts (the exchange empties the list before the length
      is adjusted), so invariant checks — e.g. the chaos oracles —
      should treat it as an upper bound, not an exact census. *)

  val gauges : t -> (string * int) list
  (** Occupancy gauges for the observability layer:
      [mpool_live], [mpool_shared_free], [mpool_created]. *)
end
