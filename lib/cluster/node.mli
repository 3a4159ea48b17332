(** One cluster member: a durable {!Replica.Primary} that also speaks
    the cluster-control opcodes and enforces slot ownership.

    The node's [handle] is a {!Service.Conn} [ext] handler.  Data
    requests are ownership-checked first: a key whose slot this node
    does not own gets {!Service.Codec.Moved} without touching a shard
    — redirects are served off the data path, from whatever domain
    runs the transport (the evloop pump included).  Owned keys fall
    through ([None]) to the normal shard/WAL route.

    That transport-side check is a fast path only; the {e
    authoritative} one is an execution-time admission filter
    ({!Service.Shard.admit}, installed by {!create}) that each shard
    consumer runs in the same serial stream as the mutations it
    gates.  A write that passed the dispatch check and then sat in a
    transport backpressure queue or a shard mailbox while its slot was
    frozen is answered [Moved] at execution — it never mutates the
    map, never reaches the WAL, and is never acked by the old owner.

    [Cl_freeze] completes the other half of that argument: after
    flipping and persisting the table it runs a {e quiesce barrier} —
    one Get per shard through the FIFO mailboxes, waited to completion
    — so its ack certifies that every write the node will ever ack on
    the frozen slot is already committed.  The committed watermark
    read after freeze-ack therefore bounds the migration driver's
    final catch-up exactly.  If a stalled or dead consumer keeps a
    barrier from landing within the quiesce budget, the freeze rolls
    the flip back and answers [Error] instead of acking an
    uncertifiable cutover.

    The ownership table is the cluster's {e atomic cutover record}: it
    is persisted through the store's [s_write] (write-temp-fsync-
    rename) {e before} any [Cl_grant]/[Cl_freeze] ack fires, so a
    node that crashes and reboots recovers exactly the slot set it
    last acknowledged — a migration is never half-remembered.

    Migration ingest ([Cl_apply]) bypasses the ownership check by
    design (the target does not own the slot until the final grant)
    and acks only once every record's normal submit path has
    committed — the WAL ack hook defers replies past the group
    commit, so [Cl_ok] means durable, same as any client ack.

    Snapshot shipping ([Cl_snap]) pages a bracket-protected live
    traversal: cursor 0 stamps the shard's committed WAL seq {e
    before} traversing (catch-up resumes after that seq — the fuzzy
    snapshot + absolute-replay convergence argument from
    lib/replica), caches the result, and later cursors page it out in
    {!Service.Codec.cl_snap_max} chunks.

    {b Delta shipping (the handoff-token handshake).}  A successful
    [Cl_freeze] mints an in-memory {e handoff token} for the slot
    (answered by [Cl_base]); the driver threads it into the final
    [Cl_grant], and the grantee records it as its {e acquisition
    token} and starts a per-slot dirty set fed by the primary's
    mutation tap — installed {e before} the ownership flip, so every
    write this tenure admits is tracked.  When the slot later
    migrates back, the driver reads the target's [Cl_base] token and
    passes it as [Cl_snap]'s [base]: if it equals the source's
    acquisition token, the source's copy diverged from the target's
    exactly by its dirty set, and the ship pages only those keys —
    deletions as tombstones, the batch's [delta] flag up.  Any
    mismatch (a reboot cleared the in-memory tokens, an intermediate
    owner, dirty-set overflow) silently degrades to the full
    traversal, for which the driver first purges the slot at the
    target ([Cl_purge], normal-ingest deletions, WAL-durable) so
    stale prior-tenure keys cannot resurrect. *)

type t

val create :
  node_id:int ->
  ?nslots:int ->
  ?quiesce_timeout:float ->
  ?slot_dirty_cap:int ->
  owners:int array ->
  apply_tid:int ->
  Replica.Primary.t ->
  t
(** Wrap a booted primary.  [owners] is the initial table (length
    [nslots], default {!Ring.default_nslots}); a table persisted by a
    previous life of this node in the primary's store takes
    precedence — reboot keeps acknowledged cutovers.  [apply_tid] is
    the producer tid migration ingest and the freeze barrier run
    under; reserve it for the node (in particular it must differ from
    tid 0, which {!Service.Conn.serve_unix} submits under), because
    the admission filter exempts it.  [quiesce_timeout] (seconds, default 5) bounds the
    [Cl_freeze] barrier wait.  [slot_dirty_cap] (default 16384)
    bounds each per-slot dirty set; past half occupancy it poisons
    and the slot's next outbound ship degrades to full.  Installs the
    node's admission filter on the primary's service
    ({!Service.Shard.t.set_admit}) {e and} its mutation tap
    ({!Replica.Primary.set_tap}) — wire the node before serving
    traffic.  @raise Invalid_argument on a table/[nslots] length
    mismatch. *)

val handle : t -> Service.Codec.request -> Service.Codec.reply option
(** The [ext] handler described above.  Control ops serialize on an
    internal lock; the data-path ownership check is two atomic
    loads. *)

val deferrable : Service.Codec.request -> bool
(** The [ext_defer] classifier to pair with {!handle} on an event-loop
    transport: [true] for the control and replication opcodes, whose
    handling blocks (group-commit waits, full-shard traversals, WAL
    segment reads, the node's control lock — a freeze holds it across
    its whole quiesce).  Pass as [~ext_defer:(Node.deferrable)] to
    {!Service.Conn.serve_unix} so they run on the loop's worker domain
    instead of stalling the pump. *)

val node_id : t -> int
val nslots : t -> int
val owners : t -> int array
(** Snapshot copy of the current table. *)

val version : t -> int
val owns_slot : t -> int -> bool
val primary : t -> Replica.Primary.t
