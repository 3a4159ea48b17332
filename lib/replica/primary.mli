(** The durable primary: a {!Service.Shard} service with per-shard
    WALs wired through the consumer ack hook.

    Group-commit discipline (enforced by the hook contract): inside a
    drained run's bracket, every applied mutation is
    {!Wal.append}ed; after the bracket closes, {!Wal.commit} syncs
    once; only then do the run's acks fire.  So an acked mutation is
    always durable, and a crash between apply and commit (the armed
    torn commit) kills the shard consumer with {e nothing} from that
    run acknowledged — recovery truncates the torn tail and replays
    exactly the acked history.

    {b Incremental snapshots.}  With [delta] enabled, the same hook
    records each mutated key in a per-shard lock-free {!Dirty} set,
    and {!snapshot_shard} can publish a {e delta} — only the keys
    mutated since the chain tip, read via
    {!Service.Shard.t.snapshot_keys} — instead of a full traversal:
    snapshot cost proportional to the write rate, not the map size.
    Deltas chain off a full base ({!Snapshot.load_chain} enforces
    continuity); every [compact_every] links the [`Auto] path folds
    the chain back into a fresh base and deletes what it covers.
    With [delta] off the dirty cells hold the distinguished
    {!Dirty.none} and the hot path pays one physical-equality check.

    Bootstrap on {!create}: newest snapshot {e chain} (if any) then
    WAL replay from its tip seq — windowed, per shard, in log order
    ({!replay}) — with logging disabled so recovery never re-appends
    what it reads.  Chain bindings apply with dirty
    tracking {e off} — they are base state the chain already covers,
    and recording them would bloat (or poison) the first post-boot
    delta.  WAL replay then records dirty keys normally, because
    replayed seqs sit above the chain tip and belong in the next
    delta. *)

type tap = shard:int -> Service.Codec.mutation -> unit
(** Post-apply mutation observer (the cluster layer's slot-dirty
    feed).  Fires inside the consumer's bracket, after the WAL append
    and dirty record for the same mutation. *)

val no_tap : tap
(** The permanently-disabled instance; recognized by [==] — one
    physical-equality check per mutation when nothing is tapped. *)

type snap_meta = {
  mutable m_base : int option;  (** newest base's stamp *)
  mutable m_last : int;  (** chain tip stamp *)
  mutable m_deltas : int;  (** links since the base *)
  mutable m_file : string;  (** newest chain file *)
}

type t = {
  svc : Service.Shard.t;
  store : Store.t;
  wals : Wal.t array;
  alive : bool Atomic.t;
  logging : bool Atomic.t;
  dirty : Dirty.t Atomic.t array;
      (** per-shard dirty cells; {!Dirty.none} when delta is off *)
  dirty_cap : int;  (** configured starting capacity *)
  dirty_caps : int array;
      (** per-shard {e adaptive} capacity for the next dirty set:
          every snapshot re-derives it from the set just swapped out
          (overflowed or past quarter occupancy → double; under
          1/16th → halve; clamped to [16, 2^20]), so one burst stops
          poisoning after a doubling cycle and a quiet shard decays
          back.  Exported as the [rep_shard<i>_dirty_cap] gauge. *)
  compact_every : int;
  snap_mu : Mutex.t array;  (** serializes {!snapshot_shard} per shard *)
  snap_meta : snap_meta array;  (** guarded by [snap_mu] *)
  tap : tap Atomic.t;
}

type boot = {
  b_recovery : Wal.recovery array;
  b_snap_bindings : int array;  (** bindings restored from snapshots *)
  b_replayed : int array;  (** WAL records re-applied *)
}

val create :
  structure:Workload.Registry.structure ->
  scheme:Workload.Registry.scheme ->
  Service.Shard.config ->
  store:Store.t ->
  ?segment_bytes:int ->
  ?delta:bool ->
  ?dirty_cap:int ->
  ?compact_every:int ->
  unit ->
  t * boot
(** The given config's [hook] field is replaced by the WAL hook.
    Bootstrap uses client tid 0 and completes before returning: each
    shard's chain bindings, then its WAL tail, go through one
    {!replay} each, and the shard's dirty cell goes live only after
    the chain's replay has drained.
    [delta] (default off) enables dirty-key tracking; [dirty_cap]
    (default 16384, rounded up to a power of two) is each set's
    {e starting} bound — past half occupancy it poisons and the next
    snapshot goes full, and every snapshot then re-sizes the next set
    from the observed write-set (see {!t.dirty_caps});
    [compact_every] (default 8) bounds chain length.
    @raise Wal.Corrupt / {!Snapshot.Corrupt} on damaged acked history. *)

val replay : Service.Shard.t -> Service.Codec.mutation array -> unit
(** Re-apply recovered or streamed history through the data path
    under client tid 0: one {!Service.Shard.pipeline} (windowed, in
    array order per shard) of {!Service.Codec.request_of_mutation}s.
    Returns once every mutation has applied.  The bulk-apply path of
    primary boot and of {!Follower} boot and apply.
    @raise Failure (naming the mutation and the reply) if any
    reply is outside [Created]/[Updated]/[Deleted]/[Not_found] — the
    replayed history is inconsistent. *)

val set_tap : t -> tap -> unit
(** Install the mutation observer.  Install at wiring time, before
    traffic; {!no_tap} disables. *)

val handle : t -> Service.Codec.request -> Service.Codec.reply option
(** The {!Service.Conn} [ext] handler: answers [Rep_info] (per-shard
    committed seqs) and [Rep_pull] (committed records, capped at
    {!Service.Codec.rep_batch_max}); [None] for data requests. *)

val committed : t -> int array

val snapshot_shard :
  t ->
  shard:int ->
  ?gate:(int -> unit) ->
  ?truncate:bool ->
  ?mode:[ `Auto | `Full | `Delta ] ->
  unit ->
  string * int
(** Stamp = committed seq read {e before} the traversal; publish
    atomically; returns [(file, seq)].  With [truncate] (default) the
    WAL then drops everything the chain covers (and, after a full
    snapshot, superseded chain files are deleted).

    [`Full] forces a base.  [`Delta] publishes a delta link when one
    is possible (a base exists, tracking is on, the set has not
    overflowed) and otherwise falls back to a base — delta is
    best-effort; the returned file name says which happened.  [`Auto]
    (default) prefers a delta but compacts to a base every
    [compact_every] links.  If nothing committed since the chain tip,
    the delta path returns the existing tip without writing.

    Serialized per shard by [snap_mu]; concurrent calls block.  The
    map traversal itself still raises [Invalid_argument] if it
    overlaps a {!sweep}. *)

val sweep : t -> shard:int -> (int * int) list
(** Ungated snapshot traversal — the oracle-comparison read. *)

val arm_torn_commit : t -> shard:int -> unit
(** The shard's next group commit dies mid-write ({!Wal.commit}'s
    torn crash); the consumer dies as a crashed shard with that run
    unacked. *)

val kill : t -> unit
(** Simulated process death: [alive] drops and every still-live shard
    consumer is crashed ({!Service.Shard.t.crash} — heartbeats
    freeze).  The store survives; a new primary or a promoted
    follower recovers from it. *)

val alive : t -> bool
val fsync_hist : t -> shard:int -> Obs.Hist.t

val gauges : t -> (string * int) list
(** [rep_primary_alive] plus each WAL's gauges under
    [rep_shard<i>_...]; with delta tracking on, also
    [rep_shard<i>_dirty_keys]/[_dirty_overflow]/[_snap_deltas]. *)

val stop : t -> unit
(** Graceful shutdown: stop the service, close the WALs. *)
