(** Injectable durable-file namespace backing WAL segments and
    snapshots.

    The WAL never touches the filesystem directly: it goes through
    this record of closures, so chaos tests substitute a deterministic
    in-memory "disk" ({!Mem}) whose crash semantics are exact — bytes
    appended but not yet synced vanish, bytes synced survive.  The
    real-disk implementation ({!fs}) maps sync to [Unix.fsync] and
    whole-file publication to write-temp-then-rename, the standard
    atomic-publish idiom.  (DESIGN.md records this substitution in the
    determinism ledger.) *)

type writer = {
  w_append : string -> unit;
      (** Buffered append; NOT durable until {!writer.w_sync} returns. *)
  w_sync : unit -> unit;
      (** Make every appended byte durable.  Returns only once it is —
          the WAL's group-commit point, timed as [fsync_ns]. *)
  w_close : unit -> unit;
}

type t = {
  s_label : string;  (** ["fs:<dir>"] or ["mem"] — for logs/CSV. *)
  s_list : unit -> string list;
      (** Regular files, sorted; names ending [".tmp"] (an interrupted
          atomic publish) are never listed. *)
  s_read : string -> string;
      (** Full contents, {e including} any appended-but-unsynced tail —
          after a real crash those bytes may or may not be present,
          which is exactly the torn-tail ambiguity recovery must
          tolerate.  @raise Sys_error if absent. *)
  s_source : string -> (bytes -> int -> int -> int) * (unit -> unit);
      (** Streaming read: [(read, close)] where [read buf off len]
          pulls at most [len] bytes ([0] = EOF) — the
          {!Service.Codec.frame_reader} source shape, so a snapshot
          loader decodes frame-at-a-time with one payload allocation
          per frame instead of materializing the file.  The caller
          must call [close] (idempotent).  Same torn-tail semantics as
          {!t.s_read}.  @raise Sys_error if absent. *)
  s_write : string -> string -> unit;
      (** Atomic whole-file publish: the file either keeps its old
          contents or has exactly the new ones, durably (snapshots,
          recovery truncation). *)
  s_append : string -> writer;  (** Open (creating if absent) for append. *)
  s_delete : string -> unit;  (** Idempotent. *)
}

val fs : dir:string -> t
(** Real directory (created, with parents, if missing).  [w_sync] is
    [Unix.fsync]; [s_write] writes [name ^ ".tmp"], fsyncs, renames. *)

(** Deterministic in-memory store with explicit crash semantics. *)
module Mem : sig
  type handle

  val create : ?label:string -> unit -> t * handle
  (** The store plus a control handle the store's users never see. *)

  val crash : handle -> unit
  (** Power loss: every file's appended-but-unsynced suffix vanishes;
      synced bytes survive.  Open writers keep working (the "process"
      holding them is expected dead — a new store user re-lists and
      re-opens). *)

  val synced_bytes : handle -> string -> int
  val pending_bytes : handle -> string -> int

  val syncs : handle -> int
  (** Total [w_sync] calls across all writers — the group-commit
      counter the batching tests assert on (one sync per drained run,
      not one per record). *)
end
