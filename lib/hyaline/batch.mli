(** Thread-local assembly of retirement batches (paper §3.2).

    [retire] calls append nodes to a per-thread builder; once the batch
    holds strictly more nodes than there are slots (and at least
    [Config.batch_min]), it is sealed and inserted into the slots'
    retirement lists.  One node of the batch — the {e NRef node} — is
    dedicated to the shared reference counter; every other node can
    serve as the batch's link in one slot's list.  All nodes are
    chained through [Hdr.batch_link] and point back to the NRef node
    through [Hdr.ref_node], giving the paper's three-words-per-node
    layout. *)

type t
(** A builder, owned by one thread. *)

val create : unit -> t
(** An empty builder on cache lines of its own ({!Prims.Padded}): its
    owner writes it on every retire. *)

val add : t -> Smr.Hdr.t -> unit
(** Append a retired node; tracks the batch's minimum birth era. *)

val size : t -> int

val is_empty : t -> bool

val min_birth : t -> int
(** Minimum birth era over the nodes added so far ([max_int] when
    empty) — Hyaline-S's [MinBirth()]. *)

val seal : t -> adjs:int -> Smr.Hdr.t
(** [seal b ~adjs] finalizes the batch: picks the NRef node,
    initializes its counter to zero and its per-batch [Adjs] snapshot,
    points every node's [ref_node] at it, resets the builder, and
    returns the NRef node.  The batch's slot nodes are the chain
    [refnode.batch_link], [refnode.batch_link.batch_link], ...
    @raise Invalid_argument on an empty builder. *)

val nodes : Smr.Hdr.t -> Smr.Hdr.t list
(** [nodes refnode] lists every node of a sealed batch (the NRef node
    first) — test/teardown helper. *)
