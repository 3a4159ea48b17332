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

    The pool is lock-free: each domain keeps a private free cache, and
    the shared free list is a CAS stack of immutable {e magazines}, each
    one spilled cache.  A spill pushes one magazine and a cache miss
    pops one, so either takes one successful CAS however many nodes
    are free.  Index assignment is a fetch-and-add.

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
      per-domain private free cache (default [64]).  The free that
      would take a cache past [local_cache] nodes spills the cache,
      that node included, as one magazine of [local_cache + 1] nodes.
      [0] disables caching: every free pushes a magazine of one node
      and every alloc pops one, which keeps reuse LIFO and
      deterministic in tests. *)

  val alloc : t -> P.t
  (** [alloc t] returns a node, recycling a freed one when available.
      Runs [P.on_alloc] before returning.  A hit in the domain's cache
      touches no shared word.  A miss pops one magazine off the shared
      stack, returns its first node and keeps the rest as the new
      cache, so a burst of misses pays one CAS per magazine.  Only an
      empty stack makes [alloc] construct a fresh node: a free node on
      the shared stack is never hidden from another domain.
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
  (** Number of nodes on the shared magazine stack (excludes
      per-domain caches).  Each magazine records the total of itself
      and everything below it, so this is one atomic load of the top
      and is exact at the instant of that load. *)

  val gauges : t -> (string * int) list
  (** Occupancy gauges for the observability layer:
      [mpool_live], [mpool_shared_free], [mpool_created]. *)
end
