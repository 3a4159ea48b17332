(** Wire protocol of the KV service: length-prefixed binary frames.

    A frame is a 4-byte big-endian payload length followed by the
    payload; a payload is a 1-byte opcode followed by fixed-width
    operands (8-byte big-endian two's-complement ints) — except
    {!reply-Error}, whose operand is the remaining payload as UTF-8.
    Requests and replies share the framing, so one decoder loop serves
    both directions; opcodes of replies have the high bit set.

    Everything here is pure bytes-in/bytes-out — the unix-socket and
    in-process loopback transports ({!Conn}) both go through these
    functions, so a loopback test exercises the exact bytes a remote
    client would put on the wire. *)

type mutation = Set of { key : int; value : int } | Unset of int
(** An {e applied} state change — what the WAL records and the
    replication stream carries.  Mutations are absolute (no CAS, no
    conditionals: a successful CAS logs as the [Set] it performed), so
    replay is idempotent — replaying a suffix of the log over a fuzzy
    snapshot converges to the primary's state. *)

type request =
  | Get of int
  | Put of { key : int; value : int }
  | Del of int
  | Cas of { key : int; expected : int; desired : int }
      (** Compare-and-set: replace [key]'s value with [desired] iff it
          is currently bound to [expected]. *)
  | Rep_info  (** Replication: ask for per-shard last committed seqs. *)
  | Rep_pull of { shard : int; from : int; max : int }
      (** Replication: committed records of [shard] with seq > [from],
          at most [min max rep_batch_max] of them. *)
  | Cl_info  (** Cluster: ask for the node's slot-ownership table. *)
  | Cl_grant of { slot : int; version : int; token : int }
      (** Cluster: the node becomes [slot]'s owner at table [version]
          (migration cutover, target side).  Persisted before the
          [Cl_ok] ack.  [token] is the source's handoff token for the
          slot (0 = none): the grantee remembers it and starts dirty
          tracking, so a later migration {e back} can ship only the
          keys mutated since this cutover. *)
  | Cl_freeze of { slot : int; target : int }
      (** Cluster: the node stops serving [slot] and redirects its
          data requests to [target] with {!reply-Moved} (migration
          cutover, source side).  Persisted before the ack — this
          write is the atomic cutover record. *)
  | Cl_release of { slot : int }
      (** Cluster: the source forgets a migrated slot (drops its
          snapshot cache; the redirect entry stays). *)
  | Cl_snap of { slot : int; shard : int; cursor : int; max : int; base : int }
      (** Cluster: one page of a bracket-protected live snapshot of
          the node's local [shard], restricted to keys of [slot].
          [cursor = 0] starts a fresh traversal (stamped with the
          shard's committed WAL seq {e before} traversing); later
          cursors page the cached result.  [base] (0 = none) is the
          handoff token the {e destination} holds for the slot: when
          it matches the token this node acquired the slot under — and
          dirty tracking has not overflowed — the node serves a {e
          delta}: only keys mutated since that cutover, deletions as
          tombstones ({!reply-Cl_snap_batch}[.delta] is then true). *)
  | Cl_apply of { records : (int * mutation) list }
      (** Cluster: apply absolute mutations through the node's normal
          submit path regardless of slot ownership — the migration
          ingest op (snapshot bootstrap and WAL catch-up both ship
          through it).  Acked with {!reply-Cl_ok} only once every
          record is applied {e and} WAL-durable. *)
  | Cl_base of { slot : int }
      (** Cluster: ask for the node's handoff token for [slot]
          (answered with {!reply-Cl_token}; 0 = the node never handed
          the slot off, or forgot across a reboot).  The migration
          driver asks the {e destination} before shipping, to learn
          whether a delta ship is possible, and the {e source} after a
          freeze, to learn the token to thread into [Cl_grant]. *)
  | Cl_purge of { slot : int }
      (** Cluster: delete every local binding of [slot], through the
          normal WAL-durable apply path.  The driver fires this at the
          destination before a {e full} ship so stale residue from a
          previous ownership tenure cannot survive as resurrected
          keys (a full ship only overwrites keys the source still
          has). *)
  | Putb of { key : int; value : string }
      (** Bind [key] to raw bytes (at most {!blob_max}).  Requires an
          arena-backed store; heap-backed daemons answer [Error].
          Not WAL-composable — {!mutation_of_exec} returns [None]. *)
  | Getc of int
      (** Copy-forced GET: always answered through the value-copy
          path ([Value]/[Value_blob]), never by reference.  Zero-copy
          clients retry through this op when a {!reply-Val_ref}
          fails its generation check. *)
  | A_info
      (** Arena handshake: ask whether the daemon serves values from
          a shared arena (answered with {!reply-Arena_info}).  On the
          shm transport a non-negative slot also opts this connection
          into by-reference GET replies. *)

type reply =
  | Value of int  (** GET hit *)
  | Value_blob of string  (** GET hit on a byte-valued binding *)
  | Val_ref of { cls : int; off : int; len : int; gen : int }
      (** Zero-copy GET hit: the value lives in the shared arena at
          byte offset [off] of size class [cls], [len] payload bytes,
          minted while generation stamp [gen] (22 bits) was current.
          The client copies the bytes out of its own mapping and
          re-validates the stamp; on mismatch it retries with
          {!request-Getc}.  Only sent to connections that negotiated
          an arena slot via {!request-A_info}. *)
  | Arena_info of { slot : int; gen : int; size : int }
      (** [A_info] answer: the connection's reservation slot in the
          arena header ([-1] = no arena / not shm), the arena file's
          generation stamp to validate attach against, and its size
          in bytes. *)
  | Not_found  (** GET/DEL miss, or CAS on an unbound key *)
  | Created  (** PUT bound a fresh key *)
  | Updated  (** PUT replaced an existing binding *)
  | Deleted  (** DEL removed the binding *)
  | Cas_ok
  | Cas_fail  (** bound, but not to [expected] *)
  | Shed
      (** Load-shed: the target shard's mailbox was full; the request
          was {e not} executed.  Clients should back off and retry. *)
  | Error of string  (** malformed request, server-side failure *)
  | Rep_state of int array  (** per-shard last committed seq *)
  | Rep_batch of { last : int; records : (int * mutation) list }
      (** [records] are [(seq, mutation)] in seq order; [last] is the
          shard's last committed seq at answer time, so
          [last - applied] is the follower's lag in frames. *)
  | Moved of { slot : int; node : int }
      (** Cluster redirect: the key's [slot] is served by [node] —
          retry there.  The request was {e not} executed. *)
  | Cl_state of { version : int; node : int; owners : int array }
      (** [Cl_info] answer: [owners.(slot)] is the node id responsible
          for [slot], as this [node] currently believes at table
          [version]. *)
  | Cl_snap_batch of {
      seq : int;
      next : int;
      kvs : (int * int) list;
      tombs : int list;
      delta : bool;
    }
      (** One [Cl_snap] page: [seq] is the WAL seq the traversal was
          stamped with (catch-up pulls resume after it), [next] the
          cursor for the following page ([-1] = done).  [delta] marks
          a delta-mode traversal; [tombs] are keys deleted since the
          delta's base cutover (always empty in full mode). *)
  | Cl_ok  (** Cluster control op acknowledged. *)
  | Cl_token of { token : int }  (** [Cl_base] answer (0 = no token). *)

exception Malformed of string
(** Raised by the decoders on truncated/unknown payloads. *)

val max_frame : int
(** Upper bound on accepted payload length (sanity limit; a length
    prefix beyond it is treated as a framing error). *)

val encode_request : Buffer.t -> request -> unit
(** Append one framed request (length prefix included). *)

val encode_reply : Buffer.t -> reply -> unit

val request_of_payload : bytes -> request
(** Decode a frame payload (no length prefix).  @raise Malformed *)

val reply_of_payload : bytes -> reply
(** @raise Malformed *)

val request_to_string : request -> string
(** ["GET 7"], ["CAS 7 1->2"], ... for logs and error messages. *)

val reply_to_string : reply -> string

val key_of_request : request -> int
(** The key the request addresses — what the shard router hashes.
    Replication requests return 0; they are answered before routing
    (the transport's [ext] handler) and rejected by the shard
    executor if they slip past it. *)

val mutation_of_exec : request -> reply -> mutation option
(** The applied state change witnessed by an executed (request, reply)
    pair — what the durability hook appends to the WAL.  [None] for
    reads, misses, failed CASes, sheds and errors. *)

val request_of_mutation : mutation -> request
(** The absolute write that re-applies a logged mutation ([Set] ->
    [Put], [Unset] -> [Del]) — how recovered or streamed history
    re-enters the data path. *)

val mutation_to_string : mutation -> string

val rep_batch_max : int
(** Hard cap on records per {!reply-Rep_batch} so the reply fits
    {!max_frame}. *)

val cl_apply_max : int
(** Hard cap on records per {!request-Cl_apply} (equals
    {!rep_batch_max}, so a pulled batch re-ships as one frame). *)

val cl_snap_max : int
(** Hard cap on bindings per {!reply-Cl_snap_batch}. *)

val blob_max : int
(** Hard cap on the byte length of a {!request-Putb} value /
    {!reply-Value_blob} so the frame stays inside {!max_frame}. *)

(** {2 Arena payload convention}

    An arena-backed store keeps every value as raw bytes in the
    shared mapping; byte 0 tags the kind (0 = int in 8-byte
    big-endian, 1 = blob).  Int traffic therefore stays
    reply-identical between heap-backed and arena-backed daemons,
    and a zero-copy client materializing a {!reply-Val_ref} decodes
    exactly what the daemon's copy path would have sent. *)

val arena_payload_int : int -> string
val arena_payload_blob : string -> string

val arena_payload_int_value : string -> int option
(** The int behind an int-kind payload, [None] for blobs or
    malformed bytes (CAS compares only int values). *)

val reply_of_arena_payload : string -> reply
(** [Value]/[Value_blob] for well-formed payloads, [Error]
    otherwise. *)

(** {2 Checksummed durable records}

    WAL records and snapshot frames use the same 4-byte length framing
    as the wire, with a trailing CRC32 over the payload body so torn
    or bit-rotted bytes are detectable on replay. *)

val crc32 : string -> pos:int -> len:int -> int
(** IEEE-802.3 (zlib) CRC32 of the byte range, in [[0, 2^32)]. *)

val encode_wal_record : Buffer.t -> seq:int -> mutation -> unit
(** One framed log record: [kind, seq, key(, value), CRC32]. *)

val decode_wal_record : bytes -> int * mutation
(** Decode and CRC-check one record payload.  @raise Malformed on any
    damage — the message includes the record's seq field (read
    best-effort) so recovery errors name the damaged record. *)

val encode_snap_head : Buffer.t -> seq:int -> count:int -> unit
(** Snapshot header frame: the WAL seq the snapshot is stamped with
    (replay resumes at [seq + 1]) and the number of binding frames
    that follow. *)

val decode_snap_head : bytes -> int * int
(** [(seq, count)].  @raise Malformed *)

val encode_snap_kv : Buffer.t -> key:int -> value:int -> unit
val decode_snap_kv : bytes -> int * int

val encode_snap_delta_head :
  Buffer.t -> from:int -> seq:int -> sets:int -> tombs:int -> unit
(** Delta snapshot header frame: [from] is the stamp of the chain
    entry this delta extends (strictly checked by the loader), [seq]
    the new chain tip, then the number of binding and tombstone frames
    that follow. *)

val decode_snap_delta_head : bytes -> int * int * int * int
(** [(from, seq, sets, tombs)].  @raise Malformed *)

val encode_snap_tomb : Buffer.t -> key:int -> unit
(** Delta tombstone frame: [key] was deleted since the delta's
    [from] stamp. *)

val decode_snap_tomb : bytes -> int
(** @raise Malformed *)

(** {2 Streaming frame reading}

    The one frame loop shared by the socket transport ({!Conn}) and
    WAL/snapshot replay, over any pull source. *)

type source = bytes -> int -> int -> int
(** [read buf off len] fills up to [len] bytes at [off] and returns
    the count; 0 means end of stream (the [Unix.read] shape). *)

type frame =
  | Frame of bytes  (** one complete payload, length prefix stripped *)
  | Eof  (** source ended exactly at a frame boundary *)
  | Torn of { got : int }
      (** source ended {e inside} a frame with [got] of its bytes
          (prefix included) present — a torn final record on disk, a
          peer hanging up mid-frame on a socket *)

type reader
(** A persistent frame decoder over one source: the length-prefix
    scan, shared by the socket transport, the shared-memory ring
    (whose source may deliver a frame in two chunks around the ring
    boundary), and WAL/snapshot replay.  Holds a reusable header
    scratch so steady-state decoding costs one payload allocation per
    frame and no staging copies. *)

val frame_reader : ?max_frame:int -> source -> reader

val next_frame : reader -> frame
(** Decode the next frame.  @raise Malformed on an out-of-bounds
    length prefix. *)

val read_frame_from : ?max_frame:int -> source -> frame
(** One-shot {!next_frame} over a throwaway reader.  @raise Malformed
    on an out-of-bounds length prefix. *)

val fold_frames : ?max_frame:int -> source -> ('a -> bytes -> 'a) -> 'a -> 'a * int option
(** Fold [f] over every complete frame payload.  The second component
    signals the tail explicitly: [None] = the source ended cleanly at
    a frame boundary; [Some got] = it ended inside a final frame with
    [got] bytes of it present (torn tail — WAL recovery truncates
    exactly these bytes).  @raise Malformed as {!read_frame_from}. *)

val string_source : string -> source
(** Source over an in-memory byte string (WAL/snapshot replay). *)
