(** Shared mechanics of the Hyaline algorithms (paper Figures 3-5).

    The batch reference-count bookkeeping ([adjust]/[traverse] and the
    deferred reaping of §4.1) is identical across Hyaline, Hyaline-S
    and the Hyaline-1 variants; the head manipulation is shared
    between the slot-based variants via the {!Make} functor over the
    {!Head.OPS} backend. *)

type reap
(** Deferred-free accumulator (§4.1): batches whose reference count
    reaches zero during an operation are collected here and freed
    afterwards — outside the traversal, in FIFO retirement order —
    so slow deallocation never extends list traversals. *)

val new_reap : unit -> reap
(** An empty accumulator on cache lines of its own ({!Prims.Padded}):
    its owner writes it whenever a bracket reaps. *)

val add_ref : reap -> Smr.Hdr.t -> int -> unit
(** [add_ref reap node v] adds [v] to the reference counter of
    [node]'s batch (the paper's [adjust]); if the counter lands on
    zero, the batch is queued on [reap]. *)

val traverse : reap -> next:Smr.Hdr.t -> handle:Smr.Hdr.t -> int
(** Fig. 3 [traverse]: walk a retirement sublist from [next] down to
    and {e including} [handle], dereferencing (-1) each node's batch.
    Returns the number of nodes visited (Hyaline-S's Ack counter). *)

val drain : Smr.Stats.t -> tid:int -> reap -> unit
(** Free every queued batch (each node's [free_hook] runs exactly
    once), oldest batch first.  [tid] is the draining thread, passed
    to the free funnel for observability. *)

module Make (H : Head.OPS) : sig
  val insert_batch :
    (int -> H.t) ->
    k:int ->
    Smr.Hdr.t ->
    skip:(slot:int -> bool) ->
    after_insert:(slot:int -> href:int -> unit) ->
    reap ->
    unit
  (** Fig. 3 [retire] lines 29-40: push one sealed batch (by its NRef
      node) onto every slot's retirement list.  Slots with no active
      threads — or for which [skip ~slot] holds (Hyaline-S's stale-era
      test) — are credited as "empty" with the batch's own [Adjs];
      each successful insertion adjusts the displaced predecessor by
      {e its} batch's [Adjs] plus the HRef snapshot, and triggers
      [after_insert] (Hyaline-S's Ack bump). *)

  val leave_slot : H.t -> handle:Smr.Hdr.t -> reap -> int
  (** Fig. 3 [leave], decomposed as in §4.4: decrement HRef validating
      the whole pair (the successor of the first node is read under
      that validation); if this was the last thread, detach the list
      with a strong pointer-CAS and credit the former first node with
      its [Adjs]; finally traverse the sublist down to [handle].
      Returns the traversal count. *)

  val trim_slot : H.t -> handle:Smr.Hdr.t -> reap -> Smr.Hdr.t * int
  (** Fig. 3 [trim]: dereference the current sublist without altering
      Head; returns the new handle (the current first node) and the
      traversal count. *)
end
