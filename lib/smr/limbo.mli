(** Per-thread limbo lists for the registration-based baselines.

    EBR, HP, HE and IBR all buffer retired blocks in a thread-local
    list and periodically attempt to reclaim ("empty" in the Wen et
    al. framework).  The list links through {!Hdr.t.next}; a limbo is
    owned by a single thread and is not thread-safe.  It also counts
    its owner's allocations for the era-clock schemes. *)

type t

val create : unit -> t
(** An empty limbo on cache lines of its own ({!Prims.Padded}). *)

val tick_alloc : t -> every:int -> bool
(** Count one allocation by the owner; true on every [every]-th, when
    the caller advances its era clock. *)

val push : t -> Hdr.t -> unit
(** Add a retired block; bumps the retire counter used by
    {!should_scan}. *)

val should_scan : t -> every:int -> bool
(** True once [every] pushes have happened since the last {!sweep};
    the caller then runs a scan.  Resets the counter when returning
    [true]. *)

val sweep : t -> keep:(Hdr.t -> bool) -> free:(Hdr.t -> unit) -> unit
(** [sweep t ~keep ~free] partitions the limbo: blocks for which
    [keep] holds stay (in order); the rest are handed to [free]. *)

val size : t -> int
val is_empty : t -> bool
val iter : t -> (Hdr.t -> unit) -> unit
