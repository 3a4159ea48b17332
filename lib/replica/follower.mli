(** A follower: its own {!Service.Shard} service kept converged with
    the primary by pulling the committed record stream.

    Pull-based: the follower asks [Rep_pull {shard; from=applied;
    max}] through an injected {!type-pull} function — in-process
    ({!Primary.handle}) in tests and experiments, or over a socket
    ([Conn.call_fd]) in the daemon — and applies the records in seq
    order through its own data path, with a hard continuity check: a
    stream gap is a loud failure, never a silent skip.  Each batch is
    continuity-checked as a whole first, then applied as one windowed
    {!Primary.replay}; [applied] advances once it has drained.

    [lag = last_committed - applied] per shard is exported as
    [replica_lag_frames]; per-batch apply time feeds
    [replica_apply_ns]. *)

type pull = shard:int -> from:int -> max:int -> Service.Codec.reply

type t

type boot = {
  b_snap_bindings : int array;
  b_replayed : int array;
  b_torn_bytes : int array;
      (** torn tail observed (and skipped, read-only) per shard *)
}

val create :
  structure:Workload.Registry.structure ->
  scheme:Workload.Registry.scheme ->
  Service.Shard.config ->
  pull:pull ->
  ?store:Store.t ->
  unit ->
  t * boot
(** The config's [hook] is forced to {!Service.Shard.no_hook} (a
    follower's durability is the primary's WAL; promotion re-opens
    it).  [shards] must equal the primary's.  With [store], bootstrap
    from the newest snapshot plus a read-only WAL scan ({!Wal.scan})
    before the first pull — the shared-store cold start.  Client tid
    0 is reserved for the replication apply path. *)

val step :
  t -> shard:int -> ?max:int -> unit -> [ `Applied of int | `Uptodate | `Err of string ]
(** One pull-and-apply round for the shard.
    @raise Failure on a sequence gap in the stream (before any of the
    batch applies). *)

val sync : ?max_rounds:int -> t -> int
(** Step every shard until all report [`Uptodate]; returns records
    applied.  Converges only against a quiescent (or dead) primary —
    against a live one it chases the log until [max_rounds]
    (default 1e6) and fails. *)

val apply_catchup :
  t -> shard:int -> (int * Service.Codec.mutation) list -> int
(** Apply records with seq > applied directly (failover catch-up from
    the shared store), continuity-checked; returns how many.
    @raise Failure if the records start beyond [applied + 1] — the
    follower is too far behind the truncated log and needs a
    snapshot bootstrap instead. *)

val drive :
  t ->
  running:(unit -> bool) ->
  ?poll_interval:float ->
  ?on_progress:(unit -> unit) ->
  unit ->
  [ `Stopped | `Primary_gone | `Io_error of string | `Pull_error of string ]
(** The daemon's chase loop: step every shard, call [on_progress] per
    round, sleep [poll_interval] (default 5ms) when idle, until
    [running ()] is false or the stream ends.  Total: {e every} exit —
    stop flag ([`Stopped]), primary hang-up ([`Primary_gone]), I/O
    failure ([`Io_error]), error reply or stream gap ([`Pull_error]) —
    is a return, never an escaping exception, so the caller's cleanup
    ([stop], fd close) runs unconditionally.  [EINTR] is swallowed (a
    signal is how [running] gets flipped). *)

val applied : t -> int array
val lag : t -> int array
val nshards : t -> int
val sweep : t -> shard:int -> (int * int) list
(** Ungated bracket-protected traversal of the follower's own map —
    the promoted-state oracle read. *)

val apply_hist : t -> Obs.Hist.t
val gauges : t -> (string * int) list
(** [replica_lag_frames<i>], [replica_applied_seq<i>],
    [replica_pulls], [replica_apply_p99_ns]. *)

val stop : t -> unit
