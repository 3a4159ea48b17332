(** Spin-then-sleep wakeup between two processes sharing a segment.

    A doorbell is a named FIFO plus a caller-supplied "waiting" flag
    in shared memory.  The waiter polls its ready predicate on every
    [Domain.cpu_relax] for a bounded budget, and only if that fails
    announces itself asleep and blocks in [select] on the FIFO; the
    ringer's fast path is one shared-memory load of the flag, writing
    the FIFO only when the peer is actually asleep.  Under load
    neither side makes a syscall.  Wakeups may be spurious; callers
    re-check their predicate in a loop.  All waits are bounded by [timeout_s], so a
    died peer can never strand the waiter. *)

type t

val default_spin : int
(** 200 rounds: 200,672 relaxes. *)

val create : path:string -> t
(** Create the FIFO at [path] (mode 0600, replacing any stale one).
    Done by the segment creator for both directions. *)

val attach : path:string -> t
(** Wrap an existing FIFO created by the peer. *)

val path : t -> string

val wait :
  ?spin:int -> ?timeout_s:float -> t ->
  announce:(bool -> unit) -> ready:(unit -> bool) -> unit
(** Wait until [ready ()] looks true or [timeout_s] elapses.
    [ready] is polled first, then once after each of the spin
    budget's relaxes: [spin] rounds of a 32, 64, ..., 1024 doubling
    schedule, so [~spin:4] is 480 relaxes and [~spin:10] 6112.  Only
    then does the waiter call [announce true], re-check [ready] and
    sleep.  [announce b] must store the waiting flag [b] into shared
    memory (with a fence); [ready] must load from shared memory.
    Returns with the flag cleared.  May return spuriously. *)

val fd_rd : t -> Unix.file_descr
(** The FIFO's read end (opened non-blocking on first use) — for
    waiters that multiplex several doorbells through one [select]
    instead of {!wait}. *)

val ring : t -> unit
(** Wake the peer if it announced itself asleep.  Call after
    publishing data *and observing the peer's waiting flag*; cheap
    to call unconditionally only when the peer might sleep.  Never
    blocks, never raises. *)

val drain : t -> unit
(** Discard any pending wakeup bytes (waiter side). *)

val close : t -> unit
(** Close this side's descriptors (keeps the FIFO on disk). *)

val unlink : t -> unit
(** Remove the FIFO from the filesystem (segment owner teardown). *)
