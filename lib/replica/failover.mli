(** Failover: confirmed-death detection and follower promotion.

    Detection reuses the chaos reaper's discipline: a primary is
    declared dead only when its liveness flag is down {e and} every
    shard consumer's heartbeat has been frozen for [threshold]
    consecutive polls — a slow primary is never failed over on a
    single stale read, and an idle one (whose parked consumers freeze
    their heartbeats too) is never failed over at all.

    Promotion runs against the {e shared store} (the shared-disk
    model): the promoted follower catches up from the WAL itself —
    read-only {!Wal.scan}, torn tail truncated, never an error — so
    every {e acknowledged} record is recovered even if the follower's
    pull stream was behind at the moment of death.  The promoted
    state must therefore equal the sequential replay of the acked
    history exactly ([Chaos.Oracle.replay_state] is the judge in
    [experiments replicate]).  Re-opening the WAL for writes as a new
    primary is {!Primary.create} over the same store — promotion
    validates the state-convergence half, which is the part that can
    diverge. *)

type monitor

val monitor :
  alive:(unit -> bool) ->
  heartbeat:(int -> int) ->
  nshards:int ->
  ?threshold:int ->
  unit ->
  monitor
(** [threshold] defaults to 3 consecutive frozen observations. *)

val poll : monitor -> bool
(** One observation round; [true] once death is confirmed.  A busy
    consumer bumps its heartbeat between spaced polls; an idle one is
    parked and does not, so the liveness flag is what keeps an idle
    primary from being confirmed dead. *)

val confirmed : monitor -> bool
val polls : monitor -> int
val confirmed_at : monitor -> int option
(** Poll count at which death was first confirmed. *)

type promotion = {
  p_caught_up : int array;  (** records applied from the store per shard *)
  p_torn_bytes : int array;  (** torn tail truncated per shard *)
  p_applied : int array;  (** per-shard applied seq after promotion *)
}

val promote : Follower.t -> store:Store.t -> promotion
(** Catch the follower up from the shared store and return the
    accounting.  @raise Wal.Corrupt on damaged acked history;
    @raise Failure if the follower is behind the truncated log (needs
    snapshot bootstrap). *)
