(** Transports for the {!Codec} wire protocol.

    One byte format, several transports:

    - {!Loopback}: in-process, deterministic — each call runs the
      request through the {e full} encode→decode→execute→encode→decode
      path, so tests exercise the exact bytes a remote peer would see,
      without sockets or nondeterministic interleaving in the
      transport itself.
    - Unix-domain sockets ({!serve_unix}/{!connect_unix}) and shared
      memory ([Shm_conn], its own module — same frames over mmap'd
      SPSC rings, no syscall per op on the hot path): the daemon paths
      used by [bin/kvd.exe].  Both are edges of one serving engine:
      one domain holds every connection, socket or ring, with one
      dispatch, one per-connection reorder window and backpressure
      queue, one completion path and one exception barrier, and
      answers GETs itself from committed state inside a bracket (the
      paper's transparency: a reader needs no registration, so
      connections need none either).  Socket connections all submit
      under one producer tid; each ring connection leases its own, so
      connection churn exercises transparent attach/detach.
    - {!Zerocopy}: in-process GETs that skip the codec entirely and
      read the live maps inside a bracket — the SMR scheme as the
      client/daemon isolation boundary. *)

exception Closed
(** Peer hung up mid-frame. *)

val ignore_sigpipe : unit -> unit
(** Ignore [SIGPIPE] process-wide so a peer vanishing mid-reply
    surfaces as an [EPIPE] write error on that connection instead of
    killing the daemon.  Called by {!serve_unix}; daemons should also
    call it at startup.  Idempotent; no-op where unsupported.
    Reads and writes additionally retry [EINTR], so signal delivery
    never masquerades as a connection error. *)

module Faults : sig
  (** Chaos injection points on the server side of both transports.
      The serving engine decides which armed fault a reply or read
      takes; the medium applies it (a byte cut on a socket, a torn or
      truncated frame on a ring), with the same client-visible
      outcome.  The disabled state is the distinguished {!none}
      instance, recognized by physical equality before any counter is
      read — the hook costs nothing when chaos is off (same
      discipline as [Obs.Probe.is_noop]). *)

  type t = Engine.Faults.t

  val create : ?delay_s:float -> unit -> t
  (** Fresh fault block, nothing armed.  [delay_s] (default 2ms) is
      the pause used by delayed reads. *)

  val none : t
  (** The permanently-disabled instance every server starts with. *)

  val is_none : t -> bool

  val arm_truncate_reply : t -> int -> unit
  (** The next [n] replies (across all connections) are cut halfway
      through the payload, then the connection closes: the client
      observes a mid-frame EOF ({!Closed}). *)

  val arm_close_mid_frame : t -> int -> unit
  (** The next [n] replies are cut right after the 4-byte length
      prefix, then the connection closes. *)

  val arm_delayed_read : t -> int -> unit
  (** The next [n] request reads hold their connection back for
      [delay_s] (a slow peer; the reply itself stays intact).  Only
      that connection waits: the server keeps serving the others. *)
end

val reader_of_fd : Unix.file_descr -> Codec.reader
(** Persistent frame decoder with the descriptor as the pull source
    (EINTR-retrying) — the shared length-prefix scan WAL replay and
    the shm ring path also use. *)

val read_next : Codec.reader -> bytes option
(** One payload (length prefix stripped); [None] on clean EOF at a
    frame boundary.  @raise Closed on mid-frame EOF,
    [Codec.Malformed] on an insane length prefix. *)

val read_frame : Unix.file_descr -> bytes option
(** One-shot {!read_next} over a throwaway {!reader_of_fd} (client
    call paths; servers keep a persistent reader per connection). *)

val write_frame : Unix.file_descr -> Buffer.t -> unit
(** Write the buffer (already framed by a [Codec.encode_*]) fully.
    The buffer is cleared on {e every} exit, including a raising one
    ([Closed] on a zero-length write, [Unix_error] from a vanished
    peer): it is snapshotted and cleared before the first byte goes
    out, so a reused buffer can never prepend a stale frame to the
    next one. *)

type server

exception Addr_in_use of string
(** {!serve_unix}: the socket path is owned by a {e live} daemon (a
    connect probe succeeded) — refusing to clobber it. *)

type backend = [ `Evloop of Poller.backend ]
(** The readiness poller under the unix-socket server
    ({!Poller.backend}: [`Epoll], [`Select], or [`Auto] — epoll where
    available).  The serving engine drives every connection:
    nonblocking fds, per-connection {!Codec.frame_reader} state
    machines, submits under {e one} producer tid (tid 0 — reserve it
    for the server), ordered nonblocking reply writes with
    short-write resume, and per-connection error containment.  Fan-in
    is bounded by 1024 connections (clamped below FD_SETSIZE on the
    select poller) and fd limits only; beyond that, new connections
    get one [Shed] reply and close. *)

val serve_unix :
  Shard.t ->
  path:string ->
  ?backlog:int ->
  ?faults:Faults.t ->
  ?ext:(Codec.request -> Codec.reply option) ->
  ?ext_defer:(Codec.request -> bool) ->
  ?backend:backend ->
  unit ->
  server
(** Bind+listen on a unix-domain socket and serve it on the serving
    engine with [backend]'s poller (default [`Evloop `Auto]).  An existing
    socket file is connect-probed first: stale (crashed daemon) →
    unlinked and claimed; live → {!Addr_in_use}, the incumbent keeps
    it.  [ext] is consulted before shard routing on every connection;
    a [Some] reply answers the request directly (the replication and
    cluster-control opcodes are served this way, off the data path),
    [None] falls through to the shard mailboxes.  Malformed frames get
    an [Error] reply, then the connection closes.  A request a full
    shard mailbox refuses is held and retried in arrival order, never
    answered [Shed]: every producer shares the mailbox, so a full one
    is not an overload signal, and the socket buffer carries the
    backpressure to the peer.

    {b Inline GETs.}  When the service has a zero-copy slot to lease
    ([zc_readers >= 1]) and is not arena-backed, the engine leases one
    for its lifetime ({!shutdown} returns it) and answers a [Get] that
    [ext] declined through {!Shard.read_inline}: a bracketed read of
    the live map that only accepts committed state.  It tries this
    only when every earlier request on the connection has been
    answered, so replies keep their order and a GET sees the
    connection's own writes.  A declined read takes the mailbox like
    any other request.

    Contracts on [ext]:

    - {b Purity on declined requests}: the handler may be consulted
      more than once for a request it answers [None] — once at
      dispatch, and again when the request is popped from the
      backpressure queue, so a verdict that changed while the request
      was held (a cluster slot frozen mid-migration) is applied at
      submission, not at arrival.  Handlers must therefore be
      effect-free on the [None] path.
    - {b Bounded work}, unless deferred: the handler runs inline on
      the single serving domain.  [ext_defer] classifies requests whose
      handling is {e not} bounded (migration ingest that waits on
      group commits, full-shard snapshot traversals, anything taking
      the node's control lock): they execute on a dedicated worker
      domain, in arrival order, completing through the same
      completion stack as the shard consumers — the engine never
      blocks on them.
    - An ext handler that raises costs that request an [Error] reply,
      never the engine. *)

val shutdown : server -> unit
(** Stop accepting, wake the engine, join server domains, release the
    zero-copy slot, unlink the socket path.  Idempotent.  Does NOT stop the service. *)

val faults : server -> Faults.t
(** The server's fault block (arm counters on it mid-run). *)

val connect_unix : path:string -> Unix.file_descr

val call_fd : Unix.file_descr -> Codec.request -> Codec.reply
(** Blocking client call over any connected descriptor.
    @raise Closed if the server hung up. *)

module Zerocopy : sig
  (** In-process zero-copy reads.

      The client leases a {!Shard} zero-copy slot and reads the live
      maps from its own domain inside an enter/leave bracket: GET
      never crosses a mailbox, is never encoded into a reply frame,
      and costs no syscall.  The SMR scheme is the isolation — a
      transparent scheme (Hyaline*/Crystalline) licenses the read
      with the bracket alone, and a client that stalls inside its
      bracket can only pin what a robust scheme bounds (the
      [shm.zerocopy] stalled-reader test).  Writes go through the ordinary routed
      {!call} — the shard consumer remains each map's only mutator.

      Contract: [enter → get* → leave], brackets short and reads only
      inside them.  {!get} outside a bracket raises. *)

  type client

  val connect : Shard.t -> tid:int -> client option
  (** Lease a zero-copy slot ([None] = all [zc_readers] slots taken).
      [tid] is the producer slot used by {!call} for writes. *)

  val enter : client -> unit
  val get : client -> int -> int option
  val leave : client -> unit
  val with_bracket : client -> (unit -> 'a) -> 'a
  val call : client -> Codec.request -> Codec.reply
  (** The non-read path (PUT/DEL/CAS/…): an ordinary routed call. *)

  val close : client -> unit
  (** Leave any open bracket and return the slot to the pool. *)

  val slot : client -> int
end

module Loopback : sig
  type client

  val connect : Shard.t -> tid:int -> client
  (** [tid] must be an unused client slot in [[0, clients)]. *)

  val call : client -> Codec.request -> Codec.reply
  (** Full wire round-trip in memory; blocking. *)
end
