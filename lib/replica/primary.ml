(* The durable primary: Shard service + per-shard WAL, glued by the
   ack hook.  The hook closes over [logging] so bootstrap replay —
   which pushes recovered mutations through the normal shard path —
   never re-appends what it just read from disk.

   Incremental snapshots ride the same hook: every applied mutation
   records its key in the shard's dirty set (a [Dirty.t] held in an
   Atomic cell), and [snapshot_shard] in delta mode visits only that
   set.  During bootstrap the cell holds [Dirty.none] while the chain
   bindings apply — they are base state, already covered by the chain
   on disk, and recording them would make the first post-boot delta
   re-ship the whole base (or instantly poison the set).  Tracking
   flips on just before WAL replay: replayed seqs sit above the chain
   tip, so their keys belong in the next delta exactly like live
   traffic's.

   Why the stamp -> swap -> seal -> traverse order is sound (the
   whole delta correctness argument):

     - the consumer applies a mutation to the map BEFORE its
       h_mutation fires, so by the time a key is visible in a dirty
       set its value is in the map;
     - a mutation committed at or below the stamp had its dirty add
       complete before the stamp read (add precedes commit in program
       order, and the stamp read saw the commit), hence before the
       swap: its key is in the OLD set — this delta ships it;
     - an add that lands in the old set after the swap (it raced)
       completes before the seal or is retried into the fresh set;
       either way the traversal starts after the seal, so every key
       in the old set is read AFTER its recorded mutation applied;
     - an add that lands in the fresh set belongs to a mutation whose
       commit follows the swap, i.e. seq > stamp: the WAL keeps its
       record (truncation stops at the stamp) and the next delta
       covers its key.

   So chain + WAL replay from the chain tip reconstructs exactly the
   acked history, same as full snapshots. *)

module Codec = Service.Codec
module Shard = Service.Shard

type tap = shard:int -> Codec.mutation -> unit

let no_tap : tap = fun ~shard:_ _ -> ()

(* Per-shard snapshot-chain bookkeeping, guarded by the shard's
   snapshot mutex. *)
type snap_meta = {
  mutable m_base : int option;  (* newest base's stamp *)
  mutable m_last : int;  (* chain tip stamp *)
  mutable m_deltas : int;  (* links since the base *)
  mutable m_file : string;  (* newest chain file *)
}

type t = {
  svc : Shard.t;
  store : Store.t;
  wals : Wal.t array;
  alive : bool Atomic.t;
  logging : bool Atomic.t;
  dirty : Dirty.t Atomic.t array;
  dirty_cap : int;
  (* Per-shard adaptive capacity for the NEXT dirty set, re-derived at
     every snapshot from the set just swapped out (see
     [next_dirty_cap]).  Starts at [dirty_cap] everywhere. *)
  dirty_caps : int array;
  compact_every : int;
  snap_mu : Mutex.t array;
  snap_meta : snap_meta array;
  tap : tap Atomic.t;
}

type boot = {
  b_recovery : Wal.recovery array;
  b_snap_bindings : int array;
  b_replayed : int array;
}

(* Retry loop of the seal handoff: [false] from [Dirty.add] means the
   set was sealed under us — re-read the cell (now holding the fresh
   set) and record there. *)
let rec record_dirty cell ~key =
  if not (Dirty.add (Atomic.get cell) ~key) then record_dirty cell ~key

(* Adaptive dirty-set sizing.  A [Dirty.t] poisons past half
   occupancy, and a poisoned set forces the next snapshot full — so a
   cap sized for the average write rate turns every burst into a full
   traversal.  Each snapshot therefore re-derives the next set's
   capacity from the one it just swapped out: overflowed, or more
   than a quarter full (i.e. past half the poison threshold), double;
   under 1/16th occupancy, halve — clamped to [16, 2^20].  One spike
   stops poisoning after a single cycle per doubling step, and a
   quiet shard decays back instead of paying a large probe table
   forever. *)
let min_dirty_cap = 16
let max_dirty_cap = 1 lsl 20

let next_dirty_cap t ~shard cur =
  let cap = t.dirty_caps.(shard) in
  let cap' =
    if Dirty.is_none cur then cap
    else if Dirty.overflowed cur then min (cap * 2) max_dirty_cap
    else begin
      let n = Dirty.count cur in
      if n * 4 > cap then min (cap * 2) max_dirty_cap
      else if n * 16 < cap then max (cap / 2) min_dirty_cap
      else cap
    end
  in
  t.dirty_caps.(shard) <- cap';
  cap'

(* Recovered or streamed mutations re-enter through the data path
   (same hashing, same shard, same map discipline), windowed and in
   order.  Any reply outside the expected set means the replayed
   history is inconsistent — fail loudly once every reply is in (the
   check itself runs on the consumers, which must not raise). *)
let replay svc muts =
  let bad = Atomic.make None in
  Shard.pipeline svc ~tid:0 ~n:(Array.length muts)
    ~on_reply:(fun i r ->
      match r with
      | Codec.Created | Codec.Updated | Codec.Deleted | Codec.Not_found -> ()
      | r -> ignore (Atomic.compare_and_set bad None (Some (i, r))))
    (fun i -> Codec.request_of_mutation muts.(i));
  match Atomic.get bad with
  | None -> ()
  | Some (i, r) ->
      failwith
        (Printf.sprintf "replica: replay of %s answered %s"
           (Codec.mutation_to_string muts.(i))
           (Codec.reply_to_string r))

let create ~structure ~scheme (cfg : Shard.config) ~store ?segment_bytes
    ?(delta = false) ?(dirty_cap = 1 lsl 14) ?(compact_every = 8) () =
  let opened =
    Array.init cfg.Shard.shards (fun i ->
        Wal.open_ ~store ~shard:i ?segment_bytes ())
  in
  let wals = Array.map fst opened in
  let logging = Atomic.make false in
  (* Cells start at [Dirty.none] so chain bootstrap below applies base
     bindings without recording them; each shard's cell goes live
     right before its WAL replay. *)
  let dirty =
    Array.init cfg.Shard.shards (fun _ -> Atomic.make Dirty.none)
  in
  let tap = Atomic.make no_tap in
  let hook =
    {
      Shard.h_mutation =
        (fun ~shard m ->
          if Atomic.get logging then ignore (Wal.append wals.(shard) m);
          (let d = dirty.(shard) in
           if not (Dirty.is_none (Atomic.get d)) then
             let key =
               match m with Codec.Set { key; _ } -> key | Codec.Unset key -> key
             in
             record_dirty d ~key);
          let tp = Atomic.get tap in
          if tp != no_tap then tp ~shard m);
      h_commit =
        (fun ~shard -> if Atomic.get logging then Wal.commit wals.(shard));
    }
  in
  let svc = Shard.create ~structure ~scheme { cfg with Shard.hook } in
  let b_snap = Array.make cfg.Shard.shards 0 in
  let b_rep = Array.make cfg.Shard.shards 0 in
  let meta =
    Array.init cfg.Shard.shards (fun _ ->
        { m_base = None; m_last = 0; m_deltas = 0; m_file = "" })
  in
  Array.iteri
    (fun i wal ->
      let snap_seq =
        match Snapshot.load_chain ~store ~shard:i with
        | None -> 0
        | Some c ->
            (* Drained before the dirty cell below goes live: [replay]
               returns only once every binding's reply is in. *)
            replay svc
              (Array.of_list
                 (List.map
                    (fun (key, value) -> Codec.Set { key; value })
                    c.Snapshot.c_bindings));
            b_snap.(i) <- List.length c.Snapshot.c_bindings;
            meta.(i).m_base <- Some c.Snapshot.c_base_seq;
            meta.(i).m_last <- c.Snapshot.c_seq;
            meta.(i).m_deltas <- c.Snapshot.c_deltas;
            (match List.rev c.Snapshot.c_files with
            | f :: _ -> meta.(i).m_file <- f
            | [] -> ());
            c.Snapshot.c_seq
      in
      if delta then Atomic.set dirty.(i) (Dirty.create ~cap:dirty_cap);
      match Wal.read_from wal ~from:snap_seq ~max:max_int with
      | `Batch (records, _) ->
          replay svc (Array.of_list (List.map snd records));
          b_rep.(i) <- List.length records
      | `Too_old base ->
          failwith
            (Printf.sprintf
               "replica: shard %d wal starts after seq %d but its newest \
                snapshot covers only up to %d"
               i base snap_seq))
    wals;
  Atomic.set logging true;
  ( {
      svc;
      store;
      wals;
      alive = Atomic.make true;
      logging;
      dirty;
      dirty_cap;
      dirty_caps = Array.make cfg.Shard.shards dirty_cap;
      compact_every;
      snap_mu = Array.init cfg.Shard.shards (fun _ -> Mutex.create ());
      snap_meta = meta;
      tap;
    },
    {
      b_recovery = Array.map snd opened;
      b_snap_bindings = b_snap;
      b_replayed = b_rep;
    } )

let set_tap t f = Atomic.set t.tap f
let committed t = Array.map Wal.committed_seq t.wals

let handle t req =
  match req with
  | Codec.Rep_info -> Some (Codec.Rep_state (committed t))
  | Codec.Rep_pull { shard; from; max } ->
      if shard < 0 || shard >= Array.length t.wals then
        Some (Codec.Error (Printf.sprintf "rep: no such shard %d" shard))
      else begin
        let cap =
          min (if max <= 0 then Codec.rep_batch_max else max) Codec.rep_batch_max
        in
        match Wal.read_from t.wals.(shard) ~from ~max:cap with
        | `Batch (records, last) -> Some (Codec.Rep_batch { last; records })
        | `Too_old base ->
            Some
              (Codec.Error
                 (Printf.sprintf
                    "rep: shard %d wal truncated (base %d > requested %d); \
                     re-bootstrap from snapshot"
                    shard base from))
      end
  | _ -> None

let snapshot_shard t ~shard ?(gate = fun _ -> ()) ?(truncate = true)
    ?(mode = `Auto) () =
  Mutex.lock t.snap_mu.(shard);
  Fun.protect ~finally:(fun () -> Mutex.unlock t.snap_mu.(shard)) @@ fun () ->
  let meta = t.snap_meta.(shard) in
  let cell = t.dirty.(shard) in
  let cur = Atomic.get cell in
  (* Stamp BEFORE the swap: everything <= seq is already in the map
     (commit publishes after apply) and already in the current dirty
     set (add precedes commit), so a delta over the swapped-out set
     plus WAL replay from [seq] covers exactly the acked history. *)
  let seq = Wal.committed_seq t.wals.(shard) in
  let can_delta =
    (not (Dirty.is_none cur)) && meta.m_base <> None
    && not (Dirty.overflowed cur)
  in
  let do_delta =
    match mode with
    | `Full -> false
    | `Delta -> can_delta
    | `Auto -> can_delta && meta.m_deltas < t.compact_every
  in
  if do_delta && seq = meta.m_last then
    (* Nothing committed since the chain tip: the chain already covers
       everything, republishing would only add an empty link. *)
    (meta.m_file, meta.m_last)
  else if do_delta then begin
    let fresh = Dirty.create ~cap:(next_dirty_cap t ~shard cur) in
    let old = Atomic.exchange cell fresh in
    Dirty.seal old;
    (try
       let keys = List.sort_uniq compare (Dirty.elements old) in
       let entries = t.svc.Shard.snapshot_keys ~shard ~keys ~gate in
       let file =
         Snapshot.write_delta ~store:t.store ~shard ~from:meta.m_last ~seq
           entries
       in
       meta.m_last <- seq;
       meta.m_deltas <- meta.m_deltas + 1;
       meta.m_file <- file
     with e ->
       (* The delta never published: its write set must survive for
          the next attempt.  Merge the sealed set back into whatever
          the cell holds now (writers may already populate it). *)
       Dirty.iter old (fun key -> record_dirty cell ~key);
       if Dirty.overflowed old then Dirty.poison (Atomic.get cell);
       raise e);
    if truncate then Wal.truncate_upto t.wals.(shard) ~seq;
    (meta.m_file, seq)
  end
  else begin
    (* Full path.  Swap a fresh set in and seal the old one anyway —
       racing adds must be redirected to the fresh set.  The old set
       only becomes discardable once the base PUBLISHES: until then
       its keys are the sole record of what the chain is missing, so
       a failed traversal (Shard.snapshot raises when it overlaps a
       sweep) or store write must merge them back, exactly like the
       delta path — otherwise the next delta would silently omit
       them. *)
    let old =
      if Dirty.is_none cur then Dirty.none
      else begin
        let o =
          Atomic.exchange cell (Dirty.create ~cap:(next_dirty_cap t ~shard cur))
        in
        Dirty.seal o;
        o
      end
    in
    (try
       let bindings = t.svc.Shard.snapshot ~shard ~gate in
       let file = Snapshot.write ~store:t.store ~shard ~seq bindings in
       meta.m_base <- Some seq;
       meta.m_last <- seq;
       meta.m_deltas <- 0;
       meta.m_file <- file
     with e ->
       if not (Dirty.is_none old) then begin
         Dirty.iter old (fun key -> record_dirty cell ~key);
         if Dirty.overflowed old then Dirty.poison (Atomic.get cell)
       end;
       raise e);
    if truncate then begin
      Wal.truncate_upto t.wals.(shard) ~seq;
      ignore (Snapshot.delete_older ~store:t.store ~shard ~keep_seq:seq)
    end;
    (meta.m_file, seq)
  end

let sweep t ~shard = t.svc.Shard.snapshot ~shard ~gate:(fun _ -> ())
let arm_torn_commit t ~shard = Wal.arm_torn_commit t.wals.(shard)

let kill t =
  if Atomic.compare_and_set t.alive true false then
    for i = 0 to t.svc.Shard.nshards - 1 do
      if t.svc.Shard.consumer_alive i then t.svc.Shard.crash ~shard:i
    done

let alive t = Atomic.get t.alive
let fsync_hist t ~shard = Wal.fsync_hist t.wals.(shard)

let gauges t =
  let acc = ref [] in
  Array.iteri
    (fun i w ->
      List.iter
        (fun (k, v) -> acc := (Printf.sprintf "rep_shard%d_%s" i k, v) :: !acc)
        (Wal.gauges w);
      let d = Atomic.get t.dirty.(i) in
      if not (Dirty.is_none d) then begin
        acc := (Printf.sprintf "rep_shard%d_dirty_keys" i, Dirty.count d) :: !acc;
        acc :=
          ( Printf.sprintf "rep_shard%d_dirty_overflow" i,
            if Dirty.overflowed d then 1 else 0 )
          :: !acc;
        acc :=
          (Printf.sprintf "rep_shard%d_snap_deltas" i, t.snap_meta.(i).m_deltas)
          :: !acc;
        acc :=
          (Printf.sprintf "rep_shard%d_dirty_cap" i, t.dirty_caps.(i)) :: !acc
      end)
    t.wals;
  ("rep_primary_alive", if Atomic.get t.alive then 1 else 0) :: List.rev !acc

let stop t =
  Atomic.set t.alive false;
  t.svc.Shard.stop ();
  Array.iter Wal.close t.wals
