(** Dead-consumer detection and recovery.

    Polls each shard's heartbeat gauge once per engine step; after
    [threshold] consecutive polls with a frozen heartbeat {e and} a
    confirmed-dead domain, the shard is reported for recovery
    ({!Service.Shard.t.recover}: force-exit the abandoned control-plane
    bracket, reuse its tid slot, respawn the consumer).  Confirmation
    matters: stalled consumers, and idle ones parked on an empty
    mailbox, freeze their heartbeat too, and force-leaving a live
    bracket would corrupt the control plane. *)

type t

val create : svc:Service.Shard.t -> threshold:int -> t
(** @raise Invalid_argument if [threshold <= 0]. *)

val poll : t -> int list
(** One detection poll; the shards whose death was confirmed on this
    poll.  Deterministic relative to the crash step: a shard crashed
    at engine step [t] is reported exactly [threshold] polls later. *)

val recover : t -> shard:int -> unit
(** {!Service.Shard.t.recover} plus reaper-state reset. *)
