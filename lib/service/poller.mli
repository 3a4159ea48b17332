(** Readiness polling for the serving engine behind both transports.

    A thin level-triggered readiness API with two implementations
    behind one interface: Linux [epoll] through the C stubs in
    [poller_stubs.c] (no allocation on the wait path; results land in
    a pre-allocated off-heap buffer so the OCaml runtime lock can be
    released around [epoll_wait]), and a portable [Unix.select]
    fallback (bounded by [FD_SETSIZE], typically 1024 descriptors).
    [`Auto] picks epoll where available.

    Not thread-safe: a poller belongs to the single domain of its
    serving engine ({!Conn.serve_unix}, [Shm_conn.serve]). *)

type backend = [ `Auto | `Epoll | `Select ]

val available : unit -> bool
(** Whether the epoll stubs are live on this platform. *)

type t

val create : backend -> t
(** @raise Failure if [`Epoll] is requested where unavailable. *)

val name : t -> string
(** ["epoll"] or ["select"] — for logs and CSV columns. *)

val accepts : t -> Unix.file_descr -> bool
(** Whether this backend can watch the descriptor at all.  Epoll
    always can; select refuses fd {e values} >= FD_SETSIZE (1024) —
    [Unix.select] would fail with EINVAL for them, regardless of how
    few descriptors are watched.  Servers check this before {!add} and
    shed the connection instead of poisoning the engine. *)

val max_fds : t -> int
(** Advisory cap on concurrently-watched descriptors: unbounded for
    epoll, comfortably below FD_SETSIZE for select (headroom for the
    process's other descriptors — WAL segments, listeners, pipes).
    Event-loop servers clamp their connection cap with this. *)

val add : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Register a descriptor with the given interest set.
    @raise Invalid_argument on the select backend for an fd value
    >= FD_SETSIZE (gate with {!accepts} first). *)

val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Change interest; a no-op when the set is unchanged.
    @raise Invalid_argument if the fd is not registered. *)

val remove : t -> Unix.file_descr -> unit
(** Deregister (idempotent; tolerates an already-closed fd). *)

val wait :
  t ->
  timeout_ms:int ->
  (Unix.file_descr -> readable:bool -> writable:bool -> unit) ->
  int
(** Block up to [timeout_ms] (-1 = indefinitely) and invoke the
    callback once per ready descriptor; returns the ready count.
    [EINTR] returns 0 — the caller's loop comes around again.
    Error/hang-up conditions surface as readable (and writable, for
    epoll), so owners observe them on the next read/write.  A
    callback may {!remove} descriptors, including ones later in the
    same batch (they are skipped). *)

val close : t -> unit

val fd_int : Unix.file_descr -> int
(** The raw descriptor number (identity on Unix ports) — the event
    loop's stable table key for a descriptor. *)
