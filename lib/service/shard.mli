(** The sharded, batched KV service core.

    A hash-partitioned router over N {!Dstruct.Map_intf.S} instances.
    Each shard owns one map plus a bounded {!Mailbox}; producers
    ({!val-submit}) hash the request key to a shard and try to mail it,
    shedding with an immediate {!Codec.Shed} reply when the mailbox is
    at capacity — overload degrades to explicit rejections, never to
    an unbounded queue.  One consumer domain per shard drains its
    mailbox in runs and executes the run under a {e single}
    [enter]/[leave] bracket with [trim] chained inside — the paper's
    batching insight (amortize reservation traffic) applied to the
    serving path, at the Figure-10b trimming discipline.

    All shard mailboxes share one control-plane tracker of the same
    scheme as the data plane, so the service's own plumbing dogfoods
    reclamation: {!set_stalled} parks a shard consumer {e inside} a
    control-plane bracket, turning it into the paper's §2.3 stalled
    adversary against the service itself.  Robust schemes bound the
    resulting [control_stats] backlog; non-robust ones let it grow
    with the surviving shards' traffic.

    Because a shard's map has exactly one mutator (its consumer), a
    multi-operation request like {!Codec.Cas} is trivially atomic —
    sharding buys linearizable read-modify-write without adding a CAS
    primitive to the maps.

    Nobody waits on a shard by sleeping.  An idle consumer parks on a
    {!Prims.Parker} that {!t.submit}, {!t.stop}, {!t.crash} and
    {!t.set_stalled} wake; {!call} and {!pipeline} (the bulk-apply
    path of boot replay, follower apply and the cluster's migration
    ingest) park on their reply condition with the calling domain's
    {!Prims.Parker.local}.  That domain-local parker is sound
    because the library and its executables spawn domains, never
    systhreads: at most one thread per domain waits at a time. *)

type ack_hook = {
  h_mutation : shard:int -> Codec.mutation -> unit;
      (** Called from the consumer, inside the run's bracket, for each
          {e applied} mutation in execution order (reads, misses and
          failed CASes produce none) — the WAL append tap. *)
  h_commit : shard:int -> unit;
      (** Called once per drained run, after the bracket closes and
          {e before} any of the run's acks fire — the group-commit
          fsync point.  If it raises, none of the run's replies are
          delivered and the consumer dies as a crashed shard
          (un-acked work is never durable, durable-but-unacked work is
          re-derived from the log): see {!t.recover}. *)
}
(** Durability tap on the consumer path ([lib/replica]'s WAL wiring).
    With the distinguished {!no_hook} instance the serving path is
    byte-identical to the hookless one — a single physical-equality
    check per drained run (measured in bench/main.ml, replica rows);
    replies then fire inline instead of being deferred to commit. *)

val no_hook : ack_hook
(** The permanently-disabled instance; recognized by [==]. *)

type admit = tid:int -> Codec.request -> Codec.reply option
(** Execution-time admission filter.  Consulted by the shard consumer
    for every data request {e at execution}, in the same serial stream
    as the mutations it gates: [Some r] answers the request with [r]
    without touching the map (no mutation, no WAL record — the reply
    rides the run's ordinary ack path, deferred past the group commit
    like any other); [None] admits it.  [tid] is the producer slot the
    request was submitted under, so a filter can exempt privileged
    producers (the cluster's migration-ingest tid).

    This is the only ownership check that cannot go stale between
    check and execution: a transport-side check runs at dispatch, and
    the request can then sit in a backpressure queue or a mailbox for
    an unbounded time while ownership moves.  [Cluster.Node] installs
    its slot-ownership check here so a frozen slot's parked writes
    answer [Moved] instead of committing at the old owner. *)

val admit_all : admit
(** The permanently-open instance every service starts with;
    recognized by [==] — one physical-equality check per drained run
    when no filter is installed. *)

type config = {
  shards : int;  (** number of partitions / consumer domains *)
  clients : int;
      (** producer tid slots: every concurrent submitter needs its own
          [tid] in [[0, clients)] (transparent attach/detach — a tid
          may be reused as soon as its previous owner is gone) *)
  mailbox_capacity : int;  (** per-shard bound; full = shed *)
  batch : int;  (** max requests drained per bracket *)
  trim_every : int;  (** [trim] chained every this many requests *)
  smr : Smr.Config.t;
      (** scheme knobs; [nthreads] is overridden internally *)
  objectives : Slo.objective list;
  seed : int;
  hook : ack_hook;  (** durability tap; {!no_hook} = disabled *)
  zc_readers : int;
      (** zero-copy reader slots: in-process clients that read the
          live maps directly from their own domains, each owning map
          tid [2 + slot] on every shard (0 = feature off) *)
  arena : Shmalloc.Arena.t option;
      (** when set, values live as blocks in this shared arena and
          the maps store packed references; remote GETs over the shm
          transport may then be answered by reference.  The arena is
          owned by the caller (create it with [tids >= shards] so
          every consumer has a retire builder; tear it down after
          {!t.stop}).  Not composable with the WAL hook: arena blobs
          do not fit the int-valued mutation format. *)
}

val default_config : config
(** 4 shards, 8 clients, capacity 256, batch 64, trim every 16,
    {!no_hook}, no zero-copy readers, no arena. *)

type t = {
  submit : tid:int -> Codec.request -> (Codec.reply -> unit) -> unit;
      (** Route and mail the request; the callback fires exactly once
          — from the shard consumer on completion, or synchronously
          with {!Codec.Shed} ([Error] after {!val-stop}).  [tid] is the
          producer's control-plane slot. *)
  nshards : int;
  clients : int;
  shard_of_key : int -> int;
  shard_depth : int -> int;  (** mailbox occupancy gauge *)
  sheds : unit -> int;  (** total shed replies *)
  processed : unit -> int;  (** total executed requests *)
  slo : Slo.t;  (** submit→reply latency, queueing included *)
  batch_hist : Obs.Hist.t;  (** drained-run lengths *)
  gauges : unit -> (string * int) list;
      (** [kv_shard<i>_depth]/[_processed]/[_stalled], totals, the
          inline-read counters [kv_inline_gets]/[kv_inline_declined]
          (how often the commit epoch sent a GET to the mailbox), and
          the control-plane tracker's scheme gauges ([kv_ctl_*]). *)
  control_stats : unit -> Smr.Stats.t;
      (** Shared mailbox tracker's reclamation counters. *)
  data_stats : unit -> Smr.Stats.t list;  (** one per shard map *)
  set_stalled : shard:int -> bool -> unit;
      (** Park/unpark a shard consumer inside a control-plane bracket
          (robustness scenario).  Its mailbox keeps accepting until
          full, then sheds; other shards are unaffected. *)
  is_stalled : int -> bool;
  is_parked : int -> bool;
      (** [true] once a stalled consumer is actually parked inside its
          stall bracket — from this point the mailbox is guaranteed
          undrained until unstall.  Fault injectors wait on this for
          deterministic shed accounting.  An idle consumer blocked on
          an empty mailbox is not "parked" in this sense. *)
  crash : shard:int -> unit;
      (** Chaos fault: the consumer takes a control-plane reservation
          and its domain terminates {e without leaving it} — the
          paper's §2.3 dead thread, aimed at the service's own
          control plane.  Joins the domain, so on return the death is
          complete: the heartbeat is frozen, queued requests stay
          queued (new ones accepted until the mailbox sheds), and the
          abandoned bracket pins retirements until {!t.recover}.
          @raise Invalid_argument if already crashed. *)
  recover : shard:int -> unit;
      (** Crash recovery (the reaper's action): force-exit the dead
          consumer's abandoned control-plane bracket — its tid slot is
          reclaimed and transparently reused — then respawn the
          consumer, which drains the backlog.
          @raise Invalid_argument if the shard is not crashed. *)
  consumer_alive : int -> bool;
      (** [false] iff crashed and not yet recovered. *)
  heartbeat : int -> int;
      (** Monotonic per-shard consumer loop counter (bumped every loop
          iteration); freezes on crash, on stall, {e and} while an idle
          consumer is parked on its empty mailbox.  A frozen heartbeat
          alone therefore never means death: the reaper and failover
          monitor also require a confirmed-dead consumer.  Exported as
          [kv_shard<i>_heartbeat]. *)
  inject_oom : shard:int -> n:int -> unit;
      (** Chaos fault: the next [n] node allocations of this shard's
          map raise [Mpool.Injected_oom]; the affected requests get a
          clean [Error] reply with no state mutation (maps allocate
          before their first published write). *)
  snapshot : shard:int -> gate:(int -> unit) -> (int * int) list;
      (** Traverse the shard's {e live} map inside ONE tid-1
          enter/leave bracket while the consumer keeps serving — the
          paper's long-running-reader adversary, run on purpose.
          Returns the bindings sorted by key.  The traversal is a
          fuzzy snapshot: concurrent mutations may or may not be
          reflected, which is sound because WAL replay from the
          snapshot's seq re-applies them as absolute writes.  [gate]
          is called with 0 right after entering the bracket and with
          [i] before visiting binding [i+1]; hanging in it stretches
          the bracket deterministically (chaos uses this to pin a
          reservation while churn retires nodes).  At most one
          snapshot per shard at a time.
          @raise Invalid_argument if one is already running. *)
  snapshot_keys :
    shard:int -> keys:int list -> gate:(int -> unit) -> (int * int option) list;
      (** The delta-snapshot read: like {!t.snapshot} (same tid-1
          bracket, same one-at-a-time exclusivity, same [gate]
          cadence) but visits only [keys] — a dirty set's contents —
          so the traversal cost scales with the write rate, not the
          map size.  Returns [(key, value option)] sorted by key;
          [None] means the key is deleted (shipped as a tombstone).
          Reads are as fuzzy as the full fold's and sound for the same
          reason: WAL replay from the stamp re-applies absolute
          mutations.
          @raise Invalid_argument if a snapshot is already running. *)
  zc_readers : int;  (** configured zero-copy slot count *)
  zc_lease : unit -> int option;
      (** Lease a free zero-copy slot ([None] = all taken).  Slots are
          transparently reusable: release returns the slot to the pool
          with no quiescence step (paper §2.4). *)
  zc_release : int -> unit;
  zc_enter : slot:int -> unit;
      (** Open the slot's bracket on {e every} shard map.  From here
          until {!t.zc_leave}, values read via {!t.zc_get} are
          guaranteed not to be reclaimed under the reader — for
          transparent schemes (Hyaline*/Crystalline) the bracket is
          the entire protocol, no per-read work; slot-protected
          schemes take their per-dereference guards inside the read.
          A stalled holder is the paper's §2.3 adversary: robust
          schemes bound what it pins, EBR does not. *)
  zc_leave : slot:int -> unit;
  zc_get : slot:int -> int -> int option;
      (** Read the live map in place from the calling domain — no
          mailbox hop, no consumer mediation, no reply copy.  Must be
          called between {!t.zc_enter} and {!t.zc_leave}.  Linearizes
          with the consumer's writes at the node read (a concurrent
          PUT may or may not be visible, as over any transport).
          On an arena-backed store the returned int is the {e packed
          arena reference} — exactly what a [Val_ref] is minted from
          (generation stamp included, read atomically with the
          offset). *)
  commit_epoch : int -> int;
      (** Shard [i]'s commit epoch: even while its map holds only
          committed state.  With a durability hook the consumer makes
          it odd before executing a run's first non-read request and
          even again once [h_commit] has returned, before any of the
          run's acks fire.  A run that raises leaves it odd for good
          (the map may hold that run's unacked writes), so the shard
          answers no GET inline again.  On the
          {!no_hook} path it never moves.  It reads odd on every shard
          while an admission filter ({!t.set_admit}) is installed, so
          {!read_inline} declines everything on such a service.  See
          {!read_inline}. *)
  inline_gets : int Atomic.t;  (** {!read_inline} reads accepted *)
  inline_declined : int Atomic.t;
      (** {!read_inline} reads declined by the epoch check *)
  arena : Shmalloc.Arena.t option;
      (** the backing arena, when the store is arena-backed — the
          serving engine uses it to answer [A_info] on ring connections
          and mint [Val_ref]s. *)
  set_admit : admit -> unit;
      (** Install the execution-time admission filter (see {!admit}).
          Install once, at wiring time, before traffic: consumers read
          the filter once per drained run, so a swap under load takes
          effect on a run boundary.  {!t.zc_get} reads do not pass
          through the filter (they never produce acks); {!read_inline}
          declines every read while one is installed. *)
  stop : unit -> unit;
      (** Stop consumers, fail queued requests with [Error], join
          domains, flush every tracker.  Idempotent. *)
  scheme_name : string;
  structure_name : string;
}

val create :
  structure:Workload.Registry.structure ->
  scheme:Workload.Registry.scheme ->
  config ->
  t
(** Instantiate maps and mailboxes for the (structure, scheme) pair
    and start one consumer domain per shard.
    @raise Invalid_argument on a non-positive config field or an
    incompatible pair (pointer-grained scheme on bonsai). *)

val read_inline : t -> slot:int -> int -> int option option
(** [read_inline t ~slot key] answers a GET from committed state on
    the calling domain, or [None]: take the mailbox.  It reads
    [t.commit_epoch] of [key]'s shard and declines if it is odd, reads
    the key inside one [t.zc_enter]/[t.zc_get]/[t.zc_leave] bracket
    under zero-copy [slot], then re-reads the epoch and accepts only
    if it has not moved.  Both transports answer GETs through it; it
    calls [t]'s fields, so a wrapped [t] sees every inline read.  Bumps
    [t.inline_gets] or [t.inline_declined].

    {b Why an accepted read is committed.}  The consumer's odd mark is
    an [Atomic] increment made before the run's first write, and the
    maps publish nodes with [Atomic] stores and CASes after it.
    Atomics are sequentially consistent, so a read that observes one
    of the run's publications also observes the odd mark (or a later
    value) on its second epoch load, and is declined.  A read that
    accepts saw the same even value [e] both times: the only writes it
    can have observed belong to runs whose odd mark preceded its first
    load, and since [e] is even each of those runs had also closed its
    commit.  The epoch only grows, so [e] cannot recur.

    One write is not an [Atomic]: the hashmap's put on an existing key
    overwrites the node's value field with a plain store, and the
    reader loads it with a plain load.  The argument holds for them
    under OCaml 5's memory model, on any target OCaml supports, with no
    fence in our code (Dolan, Sivaramakrishnan and Madhavapeddy,
    "Bounding Data Races in Space and Time", PLDI 2018; the OCaml
    manual's "Memory model: The hard bits").  In that model every
    domain's accesses take effect in program order in one global
    order; an atomic load returns the location's latest value; and a
    plain load may return a stale write but never one that comes later
    in that order.  The compiler emits the fences a weakly ordered
    target needs to keep those rules.  So a value load that returns
    the put's value comes after the store, which comes after the odd
    mark.  The second epoch load comes after the value load, sees the
    odd mark or a later value, and declines.  Atomic accesses also
    carry each domain's view of plain writes (they act as release and
    acquire), so after a first epoch load of [e] the value load cannot
    return a value older than the last write of a run that closed at
    or before [e].

    Same linearization as {!t.zc_get} otherwise: a GET accepted here is
    answered at the node read, without the run-boundary wait a mailed
    GET takes. *)

val call : t -> tid:int -> Codec.request -> Codec.reply
(** Synchronous {!t.submit}: spin briefly, then block on the calling
    domain's parker until the reply callback wakes it.  The
    closed-loop client primitive. *)

val pipeline :
  t ->
  tid:int ->
  ?window:int ->
  ?on_reply:(int -> Codec.reply -> unit) ->
  n:int ->
  (int -> Codec.request) ->
  unit
(** Ordered windowed bulk submit: requests [gen 0 .. gen (n-1)] with
    up to [window] (default 128) in flight, returning once every
    request has a non-shed reply.  The bulk-apply primitive — boot
    replay, follower apply, migration ingest, prefill: {!val-call}'s
    one-at-a-time handshake pays a producer/consumer wakeup per
    request, windowing amortizes it across a drained run.

    {b Order.}  Request [i] is mailed before request [i+1].  A shed
    comes back synchronously from {!t.submit}, and the shed request is
    resubmitted {e before} the next one is generated, so every shard's
    FIFO mailbox — hence its map — sees the requests in index order:
    writes to one key apply in the order given.

    {b Shed wait.}  While requests of its own are outstanding, the
    caller parks on its domain's {!Prims.Parker.local} until one
    lands (which frees a slot); with none outstanding, other
    producers hold the mailbox, so it spins a {!Prims.Backoff}.  It
    never sleeps.

    {b Replies.}  [on_reply i r] fires exactly once per index with its
    non-shed reply, on the shard consumer's domain (a post-{!t.stop}
    [Error] fires synchronously on the caller's) — it must not raise
    or block — and every call has returned before [pipeline] does.  Single producer: all
    submissions ride the one [tid] slot. *)
