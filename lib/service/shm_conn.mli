(** Shared-memory transport: {!Codec} frames over mmap'd SPSC rings.

    The third [Conn] backend.  The daemon owns a listen FIFO (the
    rendezvous name, what the socket path is to the unix transport);
    a client creates its own segment file beside it — two rings plus
    doorbell FIFOs, see [Shm.Seg] — and announces
    ["<segpath> <generation>\n"] over the listen FIFO.  The daemon
    validates the announced generation against the segment header on
    attach, so a dead peer's leftover file is swept, not conversed
    with.

    The daemon serves rings on the same engine as the unix socket:
    one domain holds every connection, with one dispatch, one
    per-connection reorder window and one completion path.  Under load
    neither side makes a syscall per operation — requests and replies
    move purely through shared memory, and the doorbell protocol
    (spin, publish a waiting flag, re-check, then block) only reaches
    the kernel when a side actually sleeps. *)

exception Unavailable of string
(** Connect failed: no daemon on the listen FIFO (or it vanished
    mid-handshake). *)

(** {1 Client} *)

type client

val connect : path:string -> client
(** Create a fresh segment, announce it to the daemon at [path].
    @raise Unavailable if no daemon is listening.
    Raises [Unix_error]/[Shm.Seg.Bad_segment] on filesystem trouble. *)

val call : client -> Codec.request -> Codec.reply
(** Blocking round trip over the rings.  @raise Conn.Closed once the
    daemon stamped the segment closed (shutdown, shed, or a damaged
    frame detected by either side's torn-write check). *)

val close : client -> unit
(** Stamp the segment closed and wake the daemon so it sweeps the
    connection.  Idempotent. *)

(** {2 Cross-process zero-copy}

    When the daemon's store is arena-backed ([Shard.config.arena]),
    a client may negotiate {e by-reference} GET replies: the daemon
    answers [Val_ref ⟨class, offset, len, gen⟩] frames and the client
    copies the payload straight out of its own mapping of the arena
    file, validating the generation stamp after the copy — a changed
    stamp (the block was retired under the reader) falls back to the
    daemon-side copy path ([Getc]).  Around each such GET the client
    publishes its era in the reservation slot the daemon assigned it,
    so retired batches are handed to it rather than freed under it —
    the Hyaline-S discipline stretched across the process boundary. *)

val enable_zc : client -> bool
(** Negotiate by-reference replies: send [A_info], attach the arena
    file beside the listen path under the returned generation, and
    announce our pid in the assigned reservation slot.  [false] if
    the daemon has no arena or the attach failed — calls simply keep
    taking the materialized path.  Idempotent. *)

val zc_active : client -> bool
val zc_slot : client -> int option

val zc_hold : client -> unit
(** Park the reservation bracket open (era pinned at entry) across
    subsequent calls — the stalled-remote-reader adversary switch.
    Reads stay correct throughout (the generation check is
    unconditional); what the hold changes is how much retired-but-
    unfreed garbage the daemon's policy lets this reader pin. *)

val zc_release : client -> unit
(** End a {!zc_hold}: detach the handed batch list and release it. *)

(** {1 Server} *)

val claim_listen_path : string -> unit
(** Probe-and-sweep the rendezvous path without serving: raise
    [Conn.Addr_in_use] if a live daemon reads the FIFO, otherwise
    unlink it along with every leftover segment, doorbell and arena
    file it scopes.  [serve] runs this itself; a daemon that creates
    its arena file (O_EXCL) {e before} serving calls it first so the
    stale sweep cannot eat the fresh arena. *)

type server

val serve :
  Shard.t ->
  path:string ->
  ?faults:Conn.Faults.t ->
  ?ext:(Codec.request -> Codec.reply option) ->
  unit ->
  server
(** Claim [path] (same probe discipline as the unix transport: a FIFO
    some live daemon reads raises [Conn.Addr_in_use]; a stale one is
    swept along with leftover segments), create the listen FIFO, and
    serve it on the engine behind {!Conn.serve_unix}, with the same
    per-connection rules: replies in request order, [ext] consulted
    before shard routing (and again when a held request is
    submitted), a full shard mailbox held and retried rather than
    answered [Shed], a malformed request answered [Error] and its
    connection closed, and [faults] mapped onto ring-level damage (a
    torn or truncated frame — the client observes [Conn.Closed], as
    on the socket path).  Producer tids are leased per connection from
    the service's client-slot pool; when all are taken a new
    connection is answered with one [Shed] reply and closed.

    If the service was built with [zc_readers >= 1], the server leases
    one zero-copy slot and answers a GET inline through
    {!Shard.read_inline} — a bracketed read of the live map that only
    accepts committed state, skipping the mailbox round trip — when
    nothing earlier is outstanding on the connection.  A GET the read
    declines (its shard has a commit in flight) is routed.  Writes
    always take the routed path: the shard consumer stays each map's
    only mutator.

    On an arena-backed store the inline answer for a connection that
    negotiated via [A_info] is the [Val_ref] minted from the packed
    reference the map holds; connections that never negotiated have
    their GETs routed to the shard consumer, which materializes the
    value — raw references never reach a peer without a mapping.  A
    connection's reservation slot is force-cleared when it closes,
    and idle passes clear slots whose announced pid no longer
    exists. *)

val shutdown : server -> unit
(** Stop the engine, stamp every connection's segment closed
    (waking blocked clients), unlink all segment files and FIFOs,
    including the listen FIFO.  Idempotent.  Does NOT stop the
    service. *)

val faults : server -> Conn.Faults.t
