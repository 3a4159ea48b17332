(* Cluster member: ownership-checked primary + control opcodes.  See
   node.mli for the cutover-record and durability contracts. *)

module Codec = Service.Codec

type cache = {
  sc_seq : int;
  sc_entries : (int * int option) array;  (* None = tombstone *)
  sc_delta : bool;
}

type t = {
  n_id : int;
  n_nslots : int;
  n_primary : Replica.Primary.t;
  n_apply_tid : int;
  n_owners : int Atomic.t array;
      (* entry = owning node id.  Reads are atomic because the
         execution-time admit filter (installed in [create]) runs from
         every shard consumer domain and must see a freeze's flip
         promptly; writes only under [n_lock]. *)
  mutable n_version : int;
  n_barrier_keys : int array;
      (* one key per shard — the freeze quiesce submits a barrier Get
         through each *)
  n_quiesce_timeout : float;
  n_snaps : (int * int, cache) Hashtbl.t;  (* (slot, shard) -> page cache *)
  (* Handoff tokens, the delta-ship handshake (see node.mli).  Both
     are in-memory only: a reboot forgets them, and the token
     mismatch then forces the always-correct full ship. *)
  n_handoff : int array;
      (* token minted when THIS node last froze the slot away; what
         [Cl_base] answers.  0 = never handed off (or rebooted). *)
  n_acq : int array;
      (* token this node received when granted the slot; a [Cl_snap]
         whose [base] equals it may be served as a delta.  0 = the
         slot was not acquired via a tokened grant. *)
  n_slot_dirty : Replica.Dirty.t array;
      (* per-slot write set since acquisition, fed by the primary's
         mutation tap.  Stable — never swapped or sealed: writes stop
         at freeze (the admit filter bounces them), so by the time a
         delta is served the set is quiescent.  Replaced wholesale at
         the next grant. *)
  n_slot_dirty_cap : int;
  n_lock : Mutex.t;
}

let owners_file = "cluster-owners"

(* ------------------------------------------------------------------ *)
(* The persisted cutover record.  Plain text, one atomic [s_write]:
   either the old table or the new one, never a blend. *)

let encode_owners ~version owners =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "clusterv1 %d %d\n" version (Array.length owners));
  Array.iteri
    (fun i o ->
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int o))
    owners;
  Buffer.add_char b '\n';
  Buffer.contents b

let decode_owners s =
  try
    Scanf.sscanf s "clusterv1 %d %d\n %[0-9 -]" (fun version n rest ->
        let owners =
          String.split_on_char ' ' (String.trim rest)
          |> List.filter (fun t -> t <> "")
          |> List.map int_of_string |> Array.of_list
        in
        if Array.length owners <> n then None else Some (version, owners))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let persist t =
  (Replica.Primary.(t.n_primary.store)).Replica.Store.s_write owners_file
    (encode_owners ~version:t.n_version (Array.map Atomic.get t.n_owners))

let load store =
  match store.Replica.Store.s_read owners_file with
  | exception Sys_error _ -> None
  | s -> decode_owners s

(* ------------------------------------------------------------------ *)

(* One key per shard: smallest non-negative keys covering every shard,
   so the freeze quiesce can put a barrier request in every mailbox. *)
let barrier_keys svc =
  let n = svc.Service.Shard.nshards in
  let keys = Array.make n (-1) in
  let found = ref 0 in
  let k = ref 0 in
  while !found < n do
    let s = svc.Service.Shard.shard_of_key !k in
    if keys.(s) < 0 then begin
      keys.(s) <- !k;
      incr found
    end;
    incr k
  done;
  keys

let create ~node_id ?(nslots = Ring.default_nslots) ?(quiesce_timeout = 5.0)
    ?(slot_dirty_cap = 1 lsl 14) ~owners ~apply_tid primary =
  if Array.length owners <> nslots then
    invalid_arg "Node.create: owners length <> nslots";
  let svc = primary.Replica.Primary.svc in
  if apply_tid < 0 || apply_tid >= svc.Service.Shard.clients then
    invalid_arg "Node.create: apply_tid out of range";
  let version, owners =
    match load primary.Replica.Primary.store with
    | Some (v, persisted) when Array.length persisted = nslots -> (v, persisted)
    | _ -> (0, Array.copy owners)
  in
  let t =
    {
      n_id = node_id;
      n_nslots = nslots;
      n_primary = primary;
      n_apply_tid = apply_tid;
      n_owners = Array.map Atomic.make owners;
      n_version = version;
      n_barrier_keys = barrier_keys svc;
      n_quiesce_timeout = quiesce_timeout;
      n_snaps = Hashtbl.create 8;
      n_handoff = Array.make nslots 0;
      n_acq = Array.make nslots 0;
      n_slot_dirty = Array.make nslots Replica.Dirty.none;
      n_slot_dirty_cap = slot_dirty_cap;
      n_lock = Mutex.create ();
    }
  in
  (* Per-slot write tracking: every applied mutation records its key
     in the key's slot set.  [Dirty.none] slots (never acquired via a
     tokened grant) make this one equality check; the seal-retry
     return value is irrelevant here because slot sets are never
     sealed. *)
  Replica.Primary.set_tap primary (fun ~shard:_ m ->
      let key =
        match m with Codec.Set { key; _ } -> key | Codec.Unset key -> key
      in
      ignore
        (Replica.Dirty.add
           t.n_slot_dirty.(Ring.slot_of_key ~nslots:t.n_nslots key)
           ~key));
  (* The authoritative ownership check: executed by each shard
     consumer in the same serial stream as the mutations it gates, so
     it cannot go stale between check and execution the way the
     transport-side check in [handle] can (a request may sit in a
     backpressure queue or a mailbox while a freeze flips the slot).
     The node's own migration ingest and barrier tid is exempt — the
     target legitimately writes slots it does not own yet. *)
  let admit ~tid req =
    if tid = t.n_apply_tid then None
    else
      let check key =
        let slot = Ring.slot_of_key ~nslots:t.n_nslots key in
        let owner = Atomic.get t.n_owners.(slot) in
        if owner = t.n_id then None
        else Some (Codec.Moved { slot; node = owner })
      in
      match req with
      | Codec.Get k | Codec.Del k -> check k
      | Codec.Put { key; _ } | Codec.Cas { key; _ } -> check key
      | _ -> None
  in
  svc.Service.Shard.set_admit admit;
  (* Make the boot table durable, so the very first reboot — before
     any migration — also recovers a table instead of defaults. *)
  persist t;
  t

let node_id t = t.n_id
let nslots t = t.n_nslots
let owners t = Array.map Atomic.get t.n_owners
let version t = t.n_version
let owns_slot t slot = Atomic.get t.n_owners.(slot) = t.n_id
let primary t = t.n_primary

let with_lock t f =
  Mutex.lock t.n_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.n_lock) f

(* ------------------------------------------------------------------ *)
(* Migration ingest: pipeline the batch through the normal submit
   path under the node's reserved tid, in record order per shard.
   [Shard.pipeline] returns only after every reply — the WAL hook
   defers replies past the group commit, so returning [Cl_ok] here
   certifies durability. *)

let apply_records t records =
  let svc = t.n_primary.Replica.Primary.svc in
  let records = Array.of_list records in
  let failed = Atomic.make None in
  Service.Shard.pipeline svc ~tid:t.n_apply_tid ~n:(Array.length records)
    ~on_reply:(fun _ -> function
      | Codec.Error e -> ignore (Atomic.compare_and_set failed None (Some e))
      | _ -> ())
    (fun i -> Codec.request_of_mutation (snd records.(i)));
  match Atomic.get failed with
  | None -> Codec.Cl_ok
  | Some e -> Codec.Error ("cl_apply: " ^ e)

(* ------------------------------------------------------------------ *)
(* Freeze-time quiesce barrier.  After the ownership flip, submit one
   Get per shard under the node's reserved tid and wait for every
   reply.  Each shard mailbox is FIFO with a single consumer and the
   WAL hook defers replies past the group commit, so a barrier reply
   certifies that every write submitted to that shard before the
   barrier has committed and acked; and any write executing after the
   barrier reads the flipped table in the admit filter and answers
   [Moved] — it is never acked here.  Freeze-ack therefore bounds the
   set of acked writes on the frozen slot by the committed watermark
   read right after it, which is what makes the migration driver's
   final drain deterministic.  Returns [false] on timeout (a stalled
   or dead consumer kept a barrier from landing). *)

let quiesce t =
  let svc = t.n_primary.Replica.Primary.svc in
  let deadline = Unix.gettimeofday () +. t.n_quiesce_timeout in
  let remaining = Atomic.make (Array.length t.n_barrier_keys) in
  let timed_out = ref false in
  (try
     Array.iter
       (fun key ->
         let rec submit () =
           let shed = ref false in
           svc.Service.Shard.submit ~tid:t.n_apply_tid (Codec.Get key)
             (fun reply ->
               match reply with
               | Codec.Shed -> shed := true
               | _ -> Atomic.decr remaining);
           if !shed then begin
             if Unix.gettimeofday () > deadline then raise Exit;
             Unix.sleepf 0.0002;
             submit ()
           end
         in
         submit ())
       t.n_barrier_keys
   with Exit -> timed_out := true);
  while (not !timed_out) && Atomic.get remaining > 0 do
    if Unix.gettimeofday () > deadline then timed_out := true
    else Unix.sleepf 0.0001
  done;
  not !timed_out

(* ------------------------------------------------------------------ *)
(* Snapshot shipping: cursor 0 stamps committed-before-traversal and
   caches the slot's entries; later cursors page the cache.

   Delta mode: when the requester's [base] token matches what this
   node was granted ([n_acq]) and the slot's dirty set is usable, the
   traversal visits only the keys mutated since acquisition — cost
   proportional to the slot's write rate — and deleted keys page out
   as tombstones.  Any mismatch (reboot cleared the tokens, an
   intermediate owner, overflow) silently degrades to the full
   traversal; the [delta] flag in each batch tells the driver which
   one it is getting, and the driver purges the target first only for
   full ships. *)

let snap_page t ~slot ~shard ~cursor ~max ~base =
  let prim = t.n_primary in
  let svc = prim.Replica.Primary.svc in
  if shard < 0 || shard >= svc.Service.Shard.nshards then
    Codec.Error "cl_snap: shard out of range"
  else if slot < 0 || slot >= t.n_nslots then
    Codec.Error "cl_snap: slot out of range"
  else begin
    let key = (slot, shard) in
    let cache =
      if cursor = 0 then begin
        (* Stamp BEFORE the traversal: every mutation the fuzzy
           snapshot might miss has seq > sc_seq, so catch-up pulls
           resuming after the stamp re-apply it absolutely. *)
        let seq = Replica.Wal.committed_seq prim.Replica.Primary.wals.(shard) in
        let d = t.n_slot_dirty.(slot) in
        let delta_ok =
          base <> 0
          && base = t.n_acq.(slot)
          && (not (Replica.Dirty.is_none d))
          && not (Replica.Dirty.overflowed d)
        in
        if delta_ok then begin
          let keys =
            Replica.Dirty.elements d
            |> List.filter (fun k -> svc.Service.Shard.shard_of_key k = shard)
            |> List.sort_uniq compare
          in
          match svc.Service.Shard.snapshot_keys ~shard ~keys ~gate:(fun _ -> ())
          with
          | exception Invalid_argument _ -> None  (* a traversal is live *)
          | entries ->
              let c =
                {
                  sc_seq = seq;
                  sc_entries = Array.of_list entries;
                  sc_delta = true;
                }
              in
              Hashtbl.replace t.n_snaps key c;
              Some c
        end
        else begin
          match svc.Service.Shard.snapshot ~shard ~gate:(fun _ -> ()) with
          | exception Invalid_argument _ -> None  (* a traversal is live *)
          | kvs ->
              let entries =
                List.filter
                  (fun (k, _) -> Ring.slot_of_key ~nslots:t.n_nslots k = slot)
                  kvs
                |> List.map (fun (k, v) -> (k, Some v))
                |> Array.of_list
              in
              let c = { sc_seq = seq; sc_entries = entries; sc_delta = false } in
              Hashtbl.replace t.n_snaps key c;
              Some c
        end
      end
      else Hashtbl.find_opt t.n_snaps key
    in
    match cache with
    | None ->
        if cursor = 0 then Codec.Error "cl_snap: traversal already running"
        else Codec.Error "cl_snap: no cached traversal (cursor without start)"
    | Some c ->
        let len = Array.length c.sc_entries in
        if cursor < 0 || cursor > len then Codec.Error "cl_snap: bad cursor"
        else begin
          let n =
            min (if max <= 0 then Codec.cl_snap_max else min max Codec.cl_snap_max)
              (len - cursor)
          in
          let page = Array.to_list (Array.sub c.sc_entries cursor n) in
          let kvs =
            List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) page
          in
          let tombs =
            List.filter_map (fun (k, v) -> if v = None then Some k else None) page
          in
          let next = if cursor + n >= len then -1 else cursor + n in
          Codec.Cl_snap_batch
            { seq = c.sc_seq; next; kvs; tombs; delta = c.sc_delta }
        end
  end

(* ------------------------------------------------------------------ *)
(* Slot purge: delete every key of the slot through the normal ingest
   path, so the deletions are WAL-durable like any other mutation.
   The driver runs this on the TARGET before a full ship — a full
   snapshot carries no tombstones, so without the purge a key deleted
   at the source since the target's last tenure (or surviving in the
   target's rebooted store) would resurrect after cutover. *)

let purge_slot t ~slot =
  let svc = t.n_primary.Replica.Primary.svc in
  let result = ref Codec.Cl_ok in
  (try
     for shard = 0 to svc.Service.Shard.nshards - 1 do
       let victims =
         svc.Service.Shard.snapshot ~shard ~gate:(fun _ -> ())
         |> List.filter (fun (k, _) ->
                Ring.slot_of_key ~nslots:t.n_nslots k = slot)
       in
       if victims <> [] then begin
         match
           apply_records t
             (List.map (fun (k, _) -> (0, Codec.Unset k)) victims)
         with
         | Codec.Cl_ok -> ()
         | r ->
             result := r;
             raise Exit
       end
     done
   with
  | Exit -> ()
  | Invalid_argument _ ->
      result := Codec.Error "cl_purge: traversal already running");
  !result

(* ------------------------------------------------------------------ *)

(* Which requests an event-loop transport must hand to its worker
   domain instead of running inline on the pump: everything that can
   block for unbounded time (migration ingest spins on group commits,
   snapshot paging traverses a full shard, replication pulls read WAL
   segments, and all of them serialize on [n_lock], so even [Cl_info]
   could convoy behind a freeze).  The data-path ownership check stays
   inline — it is two atomic loads. *)
let deferrable = function
  | Codec.Cl_info | Codec.Cl_grant _ | Codec.Cl_freeze _ | Codec.Cl_release _
  | Codec.Cl_snap _ | Codec.Cl_apply _ | Codec.Cl_base _ | Codec.Cl_purge _
  | Codec.Rep_info | Codec.Rep_pull _ ->
      true
  | _ -> false

let handle t req =
  match req with
  | Codec.Get k | Codec.Del k | Codec.Getc k ->
      let slot = Ring.slot_of_key ~nslots:t.n_nslots k in
      let owner = Atomic.get t.n_owners.(slot) in
      if owner = t.n_id then None else Some (Codec.Moved { slot; node = owner })
  | Codec.A_info ->
      (* Cluster nodes run WAL-backed stores, never arena-backed ones;
         fall through and let the shard answer slot -1 (no arena). *)
      None
  | Codec.Putb { key; _ } | Codec.Put { key; _ } | Codec.Cas { key; _ } ->
      let slot = Ring.slot_of_key ~nslots:t.n_nslots key in
      let owner = Atomic.get t.n_owners.(slot) in
      if owner = t.n_id then None else Some (Codec.Moved { slot; node = owner })
  | Codec.Rep_info | Codec.Rep_pull _ -> Replica.Primary.handle t.n_primary req
  | Codec.Cl_info ->
      Some
        (with_lock t (fun () ->
             Codec.Cl_state
               {
                 version = t.n_version;
                 node = t.n_id;
                 owners = Array.map Atomic.get t.n_owners;
               }))
  | Codec.Cl_grant { slot; version; token } ->
      Some
        (with_lock t (fun () ->
             if slot < 0 || slot >= t.n_nslots then
               Codec.Error "cl_grant: slot out of range"
             else begin
               (* Acquisition tracking BEFORE the ownership flip: the
                  fresh dirty set must be in place when the first
                  admitted write's tap fires, or that key would be
                  missing from the next delta this node serves.  A
                  tokenless grant (token 0) disables delta service
                  from this tenure. *)
               t.n_acq.(slot) <- token;
               t.n_slot_dirty.(slot) <-
                 (if token <> 0 then
                    Replica.Dirty.create ~cap:t.n_slot_dirty_cap
                  else Replica.Dirty.none);
               (* This node is owner again: any token it minted for a
                  past handoff no longer describes anyone's base. *)
               t.n_handoff.(slot) <- 0;
               Atomic.set t.n_owners.(slot) t.n_id;
               t.n_version <- max t.n_version version;
               (* Durable before the ack: the cutover record. *)
               persist t;
               Codec.Cl_ok
             end))
  | Codec.Cl_freeze { slot; target } ->
      Some
        (with_lock t (fun () ->
             if slot < 0 || slot >= t.n_nslots then
               Codec.Error "cl_freeze: slot out of range"
             else begin
               let prev = Atomic.get t.n_owners.(slot) in
               Atomic.set t.n_owners.(slot) target;
               t.n_version <- t.n_version + 1;
               persist t;
               (* The flip redirects what arrives from here on; the
                  barrier flushes what is already inside the service.
                  Only after both does the ack fire — see [quiesce]
                  for why ack then bounds the slot's acked writes. *)
               if quiesce t then begin
                 (* Mint the handoff token: this node's state as of
                    the freeze, which the grantee will record as its
                    base.  A later migration back to this node may
                    then ship only the delta since this moment. *)
                 t.n_handoff.(slot) <-
                   (t.n_id lsl 32) lor (t.n_version land 0xFFFFFFFF);
                 Codec.Cl_ok
               end
               else begin
                 (* A stalled or dead consumer kept a barrier from
                    landing within the budget: un-flip so the slot
                    keeps serving here, and fail the freeze — the
                    driver aborts rather than cutting over a slot
                    whose in-flight writes cannot be certified. *)
                 Atomic.set t.n_owners.(slot) prev;
                 t.n_version <- t.n_version + 1;
                 persist t;
                 Codec.Error "cl_freeze: quiesce timed out"
               end
             end))
  | Codec.Cl_release { slot } ->
      Some
        (with_lock t (fun () ->
             Hashtbl.iter
               (fun (s, sh) _ -> if s = slot then Hashtbl.remove t.n_snaps (s, sh))
               (Hashtbl.copy t.n_snaps);
             Codec.Cl_ok))
  | Codec.Cl_base { slot } ->
      Some
        (with_lock t (fun () ->
             if slot < 0 || slot >= t.n_nslots then
               Codec.Error "cl_base: slot out of range"
             else Codec.Cl_token { token = t.n_handoff.(slot) }))
  | Codec.Cl_purge { slot } ->
      Some
        (with_lock t (fun () ->
             if slot < 0 || slot >= t.n_nslots then
               Codec.Error "cl_purge: slot out of range"
             else purge_slot t ~slot))
  | Codec.Cl_snap { slot; shard; cursor; max; base } ->
      Some (with_lock t (fun () -> snap_page t ~slot ~shard ~cursor ~max ~base))
  | Codec.Cl_apply { records } ->
      Some (with_lock t (fun () -> apply_records t records))
