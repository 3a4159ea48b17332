(** The common interface of the four benchmark data structures.

    All four structures of the paper's evaluation (§6: Harris-Michael
    sorted linked list, Michael's lock-free hash map, the Bonsai-tree
    variant, and the Natarajan-Mittal BST) implement integer-keyed
    maps behind this signature, functorized over the SMR scheme, so
    every (structure x scheme) pair of the figures is one functor
    application.

    Bracketing is the caller's job, exactly as in the paper's
    programming model (Figure 1a): wrap each operation in
    {!S.enter}/{!S.leave} — or chain operations with {!S.trim} for the
    Figure 10b experiment.  Operations must not be invoked outside a
    bracket.  A [tid] in [0 .. cfg.nthreads - 1] is used by one domain
    at a time: the list and the hashmap keep a per-tid search cursor,
    as the trackers keep per-tid state. *)

module type S = sig
  type t

  val name : string

  val create : ?seed:int -> cfg:Smr.Config.t -> unit -> t
  (** Fresh empty map with its own tracker instance and node pool.
      [seed] parameterizes any internal randomization. *)

  (** {2 Bracketing} *)

  val enter : t -> tid:int -> unit
  val leave : t -> tid:int -> unit
  val trim : t -> tid:int -> unit
  val flush : t -> tid:int -> unit

  (** {2 Operations (inside a bracket)} *)

  val insert : t -> tid:int -> int -> int -> bool
  (** [insert t ~tid k v] adds the binding; [false] if [k] present. *)

  val remove : t -> tid:int -> int -> bool
  (** [remove t ~tid k] deletes [k]'s binding; [false] if absent. *)

  val get : t -> tid:int -> int -> int option

  val put : t -> tid:int -> int -> int -> bool
  (** Insert-or-update; [true] if a new binding was created. *)

  val fold : t -> tid:int -> ('a -> int -> int -> 'a) -> 'a -> 'a
  (** [fold t ~tid f acc] folds [f acc key value] over the {e live}
      map, inside the caller's bracket, while other threads keep
      operating — the long-running-reader traversal behind the
      replication snapshot.  The result is a {e fuzzy} snapshot:
      concurrent mutations may or may not be reflected (each visited
      binding was live at its visit), so consumers must reconcile via
      an idempotent replay (see lib/replica).  List-shaped structures
      (list, hashmap) protect hand-over-hand through the same rotating
      read slots as their searches, safe under every scheme; tree
      folds keep only a bounded window of the descent protected, so
      under the slot-protected schemes (HP/HE) they are safe only
      quiescently — bracket-protection schemes (EBR, IBR, the Hyaline
      family) cover the whole traversal by the bracket itself. *)

  (** {2 Observation} *)

  val stats : t -> Smr.Stats.t
  (** The underlying tracker's reclamation counters. *)

  val gauges : t -> (string * int) list
  (** Instantaneous occupancy gauges: the tracker's scheme-internal
      figures ({!Smr.Tracker.S.gauges}) followed by the node pool's
      ([mpool_live], [mpool_shared_free], [mpool_created]).  Racy
      point samples, safe to poll concurrently. *)

  val inject_alloc_failures : t -> n:int -> unit
  (** Chaos hook: arm the node pool so its next [n] allocations raise
      [Mpool.Injected_oom] (see {!Mpool.Make.inject_failures}).  An
      affected operation fails {e before} mutating the structure —
      every implementation allocates ahead of its first published
      write — so an injected failure is always a clean rejection. *)

  val size : t -> int
  (** Number of bindings.  Quiescent use only. *)

  val to_sorted_list : t -> (int * int) list
  (** All bindings in key order.  Quiescent use only. *)

  val check : t -> unit
  (** Validate structural invariants (ordering, balance/marks, no
      freed node reachable).  Quiescent use only; raises
      [Failure]/[Hdr.Lifecycle] on violation. *)
end

(** Builder: structure module from a scheme module. *)
module type MAKER = functor (T : Smr.Tracker.S) -> S
