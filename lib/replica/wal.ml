(* Per-shard write-ahead log: group-committed checksummed frames over
   an injectable Store, with the crash-recovery rule that makes
   ack-equals-durable sound:

     - a defective item at the very end of the LAST segment is the
       residue of dying mid-group-commit — its batch was never acked,
       so recovery TRUNCATES it and says how many bytes;
     - a defective item anywhere else is damage to acknowledged
       history — recovery fails LOUDLY with the expected seq, never
       silently skips.

   Appends buffer; commit writes the whole buffered run and syncs
   once.  The shard consumer calls commit after its drained run's
   bracket closes and before any ack fires. *)

module Codec = Service.Codec

exception Crashed
exception Corrupt of { shard : int; segment : string; seq : int; reason : string }

type recovery = {
  r_records : int;
  r_last_seq : int;
  r_truncated_bytes : int;
  r_truncated_segment : string option;
  r_segments : int;
}

let default_segment_bytes = 64 * 1024
let seg_name ~shard ~first = Printf.sprintf "wal-%d-%012d.seg" shard first

let parse_seg ~shard name =
  let prefix = Printf.sprintf "wal-%d-" shard in
  let plen = String.length prefix in
  if
    String.length name > plen + 4
    && String.sub name 0 plen = prefix
    && Filename.check_suffix name ".seg"
  then int_of_string_opt (String.sub name plen (String.length name - plen - 4))
  else None

(* Scan every segment in seq order, enforcing frame integrity and seq
   continuity.  Returns (records, last_seq, torn, segments) where
   [torn = Some (segment, good_prefix_len, dropped_bytes)] describes a
   truncatable tail.  Raises Corrupt on anything else. *)
let scan_store ~(store : Store.t) ~shard =
  let segs =
    List.filter_map
      (fun n ->
        match parse_seg ~shard n with Some f -> Some (n, f) | None -> None)
      (store.Store.s_list ())
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  let nsegs = List.length segs in
  let records = ref [] in
  let expect = ref (match segs with (_, f) :: _ -> f | [] -> 1) in
  let torn = ref None in
  List.iteri
    (fun i (name, first) ->
      let is_last = i = nsegs - 1 in
      if first <> !expect then
        raise
          (Corrupt
             {
               shard;
               segment = name;
               seq = !expect;
               reason =
                 Printf.sprintf
                   "segment starts at seq %d, expected %d (missing or \
                    reordered segment)"
                   first !expect;
             });
      let data = store.Store.s_read name in
      let len = String.length data in
      let pos = ref 0 in
      let read buf off want =
        let n = min want (len - !pos) in
        Bytes.blit_string data !pos buf off n;
        pos := !pos + n;
        n
      in
      let fail reason =
        raise (Corrupt { shard; segment = name; seq = !expect; reason })
      in
      (* Zero-tail residue test: is everything from [from] to EOF zero
         bytes?  Real frames start with a nonzero length prefix, so
         acked history can never look like this.  A filesystem can
         bring a file back from a crash with its size persisted past
         the last fsync but the new blocks never written (XFS, or ext4
         with data=writeback): the segment then ends in zeros (plus,
         possibly, a torn final record whose payload read consumed
         part of them). *)
      let rest_is_zeros from =
        let rec go i = i >= len || (data.[i] = '\000' && go (i + 1)) in
        go from
      in
      let stop = ref false in
      while not !stop do
        let frame_start = !pos in
        match Codec.read_frame_from read with
        | exception Codec.Malformed reason ->
            (* A garbage length prefix: framing is lost from here on.
               In the last segment everything before this parsed clean,
               so the rest is tail residue — truncate.  Anywhere else
               it is a hole in acked history. *)
            if is_last then begin
              torn := Some (name, frame_start, len - frame_start);
              stop := true
            end
            else fail reason
        | Codec.Eof -> stop := true
        | Codec.Torn { got } ->
            if is_last then begin
              torn := Some (name, frame_start, len - frame_start);
              stop := true
            end
            else
              fail
                (Printf.sprintf
                   "torn frame (%d bytes) inside a non-final segment" got)
        | Codec.Frame payload -> (
            match Codec.decode_wal_record payload with
            | seq, m ->
                if seq <> !expect then
                  fail (Printf.sprintf "sequence gap: record carries seq %d" seq);
                records := (seq, m) :: !records;
                expect := seq + 1
            | exception Codec.Malformed reason ->
                (* Damaged record: the classic torn tail when the
                   damage runs to EOF in the last segment — directly
                   (!pos = len), or through a crash's zero tail (a
                   torn record's payload read consumed part of it; a
                   zero length prefix reads as an empty frame ->
                   Malformed here).  A damaged
                   record FOLLOWED by non-zero frames is bitrot in
                   acknowledged history, not a tear — commits append
                   in order, so nothing past a tear was ever written —
                   and stays loud even in the newest segment.  In a
                   rotated segment the one benign shape is all zeros
                   from [frame_start] to EOF (a zero tail the crash
                   left on a segment that was rotated before it):
                   skipped without a rewrite; if the zeros actually
                   hid acked records, the next segment's first-seq
                   continuity check fails loudly. *)
                if is_last && (!pos = len || rest_is_zeros !pos) then begin
                  torn := Some (name, frame_start, len - frame_start);
                  stop := true
                end
                else if (not is_last) && rest_is_zeros frame_start then
                  stop := true
                else fail reason)
      done)
    segs;
  (List.rev !records, !expect - 1, !torn, segs)

let mk_recovery records last torn segs =
  {
    r_records = List.length records;
    r_last_seq = last;
    r_truncated_bytes = (match torn with Some (_, _, d) -> d | None -> 0);
    r_truncated_segment = (match torn with Some (n, _, _) -> Some n | None -> None);
    r_segments = List.length segs;
  }

let scan ~store ~shard =
  let records, last, torn, segs = scan_store ~store ~shard in
  (records, mk_recovery records last torn segs)

type t = {
  store : Store.t;
  shard : int;
  segment_bytes : int;
  mu : Mutex.t;
  (* Committed records with seqs (base, committed]; recs.(start + i)
     holds seq base+1+i.  Grown by doubling, compacted on growth. *)
  mutable recs : (int * Codec.mutation) array;
  mutable start : int;
  mutable count : int;
  mutable base : int;
  committed : int Atomic.t;
  mutable next_seq : int;
  pending : Buffer.t;
  mutable pending_recs : (int * Codec.mutation) list;  (* reversed *)
  mutable first_pending_frame : int;  (* bytes of the first buffered frame *)
  mutable writer : Store.writer;
  mutable writer_name : string;
  mutable writer_len : int;
  mutable segs : (string * int) list;  (* (name, first_seq) ascending *)
  hist : Obs.Hist.t;
  mutable n_fsyncs : int;
  mutable torn_armed : bool;
  mutable dead : bool;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let open_ ~store ~shard ?(segment_bytes = default_segment_bytes) () =
  let records, last, torn, segs = scan_store ~store ~shard in
  (* Rewrite the torn final segment to its good prefix (atomic
     publish) before taking the append head: the truncated bytes
     belonged to a batch that was never acknowledged. *)
  (match torn with
  | Some (name, good_len, _) ->
      let data = store.Store.s_read name in
      store.Store.s_write name (String.sub data 0 good_len)
  | None -> ());
  let segs =
    match segs with
    | [] ->
        let name = seg_name ~shard ~first:1 in
        store.Store.s_write name "";
        [ (name, 1) ]
    | l -> l
  in
  let base = snd (List.hd segs) - 1 in
  let writer_name = fst (List.nth segs (List.length segs - 1)) in
  let writer = store.Store.s_append writer_name in
  let writer_len = String.length (store.Store.s_read writer_name) in
  let recs = Array.of_list records in
  let t =
    {
      store;
      shard;
      segment_bytes;
      mu = Mutex.create ();
      recs;
      start = 0;
      count = Array.length recs;
      base;
      committed = Atomic.make last;
      next_seq = last + 1;
      pending = Buffer.create 1024;
      pending_recs = [];
      first_pending_frame = 0;
      writer;
      writer_name;
      writer_len;
      segs;
      hist = Obs.Hist.create ();
      n_fsyncs = 0;
      torn_armed = false;
      dead = false;
    }
  in
  (t, mk_recovery records last torn segs)

let append t m =
  locked t @@ fun () ->
  if t.dead then raise Crashed;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let before = Buffer.length t.pending in
  Codec.encode_wal_record t.pending ~seq m;
  if before = 0 then t.first_pending_frame <- Buffer.length t.pending;
  t.pending_recs <- (seq, m) :: t.pending_recs;
  seq

let push t r =
  if t.start + t.count = Array.length t.recs then begin
    let cap = max 64 (2 * t.count) in
    let a = Array.make cap (0, Codec.Unset 0) in
    Array.blit t.recs t.start a 0 t.count;
    t.recs <- a;
    t.start <- 0
  end;
  t.recs.(t.start + t.count) <- r;
  t.count <- t.count + 1

let rotate t =
  t.writer.Store.w_close ();
  let first = t.next_seq in
  let name = seg_name ~shard:t.shard ~first in
  t.store.Store.s_write name "";
  t.writer <- t.store.Store.s_append name;
  t.writer_name <- name;
  t.writer_len <- 0;
  t.segs <- t.segs @ [ (name, first) ]

let commit t =
  locked t @@ fun () ->
  if t.dead then raise Crashed;
  if Buffer.length t.pending > 0 then begin
    let bytes = Buffer.contents t.pending in
    if t.torn_armed then begin
      (* Power loss mid-write: the sink durably received only the
         first half of the run's FIRST record, then the process died.
         No complete record of the unacked run reaches disk (a
         complete-but-unacked record would be replayed by recovery and
         diverge from the acked history), nothing is promoted to
         committed, nothing gets acked; recovery finds exactly this
         torn partial frame and truncates it. *)
      let cut = (t.first_pending_frame + 1) / 2 in
      t.writer.Store.w_append (String.sub bytes 0 cut);
      t.writer.Store.w_sync ();
      t.torn_armed <- false;
      t.dead <- true;
      raise Crashed
    end;
    t.writer.Store.w_append bytes;
    let t0 = Obs.Clock.now_ns () in
    t.writer.Store.w_sync ();
    Obs.Hist.add t.hist (Obs.Clock.now_ns () - t0);
    t.n_fsyncs <- t.n_fsyncs + 1;
    t.writer_len <- t.writer_len + String.length bytes;
    List.iter (fun r -> push t r) (List.rev t.pending_recs);
    Buffer.clear t.pending;
    t.pending_recs <- [];
    t.first_pending_frame <- 0;
    Atomic.set t.committed (t.next_seq - 1);
    if t.writer_len >= t.segment_bytes then rotate t
  end

let arm_torn_commit t = locked t @@ fun () -> t.torn_armed <- true
let committed_seq t = Atomic.get t.committed
let base_seq t = locked t @@ fun () -> t.base

let read_from t ~from ~max =
  locked t @@ fun () ->
  if from < t.base then `Too_old t.base
  else begin
    let hi = Atomic.get t.committed in
    let avail = hi - from in
    let n = if avail < 0 then 0 else min avail (if max < 0 then 0 else max) in
    let out = ref [] in
    for i = n - 1 downto 0 do
      out := t.recs.(t.start + (from + i - t.base)) :: !out
    done;
    `Batch (!out, hi)
  end

let truncate_upto t ~seq =
  locked t @@ fun () ->
  let seq = min seq (Atomic.get t.committed) in
  if seq > t.base then begin
    let drop = seq - t.base in
    t.start <- t.start + drop;
    t.count <- t.count - drop;
    t.base <- seq;
    (* A segment covers [first, next_first); delete it once wholly
       covered by [seq].  The active (last) segment always stays. *)
    let rec prune = function
      | (name, _) :: ((_, next_first) :: _ as rest) when next_first <= seq + 1 ->
          t.store.Store.s_delete name;
          prune rest
      | l -> l
    in
    t.segs <- prune t.segs
  end

let fsync_hist t = t.hist
let fsyncs t = locked t @@ fun () -> t.n_fsyncs
let segments t = locked t @@ fun () -> List.length t.segs

let gauges t =
  locked t @@ fun () ->
  [
    ("wal_committed_seq", Atomic.get t.committed);
    ("wal_base_seq", t.base);
    ("wal_records", t.count);
    ("wal_segments", List.length t.segs);
    ("wal_fsyncs", t.n_fsyncs);
    ("wal_fsync_p99_ns", Obs.Hist.percentile t.hist 0.99);
  ]

let close t =
  locked t @@ fun () ->
  if not t.dead then begin
    t.dead <- true;
    t.writer.Store.w_close ()
  end
