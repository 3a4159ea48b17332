(** One wait/wake primitive: spin, publish a waiting flag, re-check,
    then block on a Mutex/Condition bell.

    A {!park} spins on its [ready] predicate and blocks only when the
    spin budget runs out; a {!wake} costs one atomic load unless the
    waiter is actually blocked.  No wakeup is lost provided the waker
    publishes whatever makes [ready] true {e before} calling {!wake}.
    This is [Shm.Doorbell]'s protocol with the FIFO replaced by a
    condition variable, for waits that stay inside one process.

    One parker serves one waiting thread at a time; any number of
    threads may wake it. *)

type t

val create : unit -> t

val local : unit -> t
(** The calling domain's own parker, created on first use.  A waiter
    that has several outstanding requests (a reply condition) parks on
    this and hands it to whoever completes them.  Sound as long as no
    two threads of one domain park at once — the library spawns
    domains, never systhreads. *)

val park : t -> ready:(unit -> bool) -> unit
(** [park t ~ready] returns once [ready ()] has been seen true, or
    after a {!wake}, or spuriously: callers re-test their condition in
    a loop.  A fixed budget of 128 [ready] polls precedes blocking. *)

val wake : t -> unit
(** Wake the waiter if it is blocked in {!park}.  Call after
    publishing the data its [ready] tests. *)
