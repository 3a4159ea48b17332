(* The follower replays the primary's committed record stream through
   its own shard service.  Mutations are absolute, so applying them in
   seq order (continuity-checked) converges the follower's maps to the
   primary's no matter where bootstrap left off. *)

module Codec = Service.Codec
module Shard = Service.Shard

type pull = shard:int -> from:int -> max:int -> Codec.reply

type t = {
  svc : Shard.t;
  pull : pull;
  applied : int Atomic.t array;
  lag_ : int Atomic.t array;
  hist : Obs.Hist.t;
  pulls : int Atomic.t;
}

type boot = {
  b_snap_bindings : int array;
  b_replayed : int array;
  b_torn_bytes : int array;
}

let create ~structure ~scheme (cfg : Shard.config) ~pull ?store () =
  let svc = Shard.create ~structure ~scheme { cfg with Shard.hook = Shard.no_hook } in
  let n = cfg.Shard.shards in
  let t =
    {
      svc;
      pull;
      applied = Array.init n (fun _ -> Atomic.make 0);
      lag_ = Array.init n (fun _ -> Atomic.make 0);
      hist = Obs.Hist.create ();
      pulls = Atomic.make 0;
    }
  in
  let b_snap = Array.make n 0 in
  let b_rep = Array.make n 0 in
  let b_torn = Array.make n 0 in
  (match store with
  | None -> ()
  | Some store ->
      for shard = 0 to n - 1 do
        let snap_seq =
          (* The full chain — base plus continuity-checked deltas —
             so a follower bootstrapping off a delta-snapshotting
             primary starts from the chain tip, not the last base. *)
          match Snapshot.load_chain ~store ~shard with
          | None -> 0
          | Some c ->
              Primary.replay svc
                (Array.of_list
                   (List.map
                      (fun (key, value) -> Codec.Set { key; value })
                      c.Snapshot.c_bindings));
              b_snap.(shard) <- List.length c.Snapshot.c_bindings;
              c.Snapshot.c_seq
        in
        let records, r = Wal.scan ~store ~shard in
        b_torn.(shard) <- r.Wal.r_truncated_bytes;
        let tail = List.filter (fun (seq, _) -> seq > snap_seq) records in
        (match tail with
        | (first, _) :: _ when first > snap_seq + 1 ->
            failwith
              (Printf.sprintf
                 "replica: shard %d wal starts at seq %d but its newest \
                  snapshot covers only up to %d"
                 shard first snap_seq)
        | _ -> ());
        Primary.replay svc (Array.of_list (List.map snd tail));
        b_rep.(shard) <- List.length tail;
        Atomic.set t.applied.(shard) (max snap_seq r.Wal.r_last_seq)
      done);
  (t, { b_snap_bindings = b_snap; b_replayed = b_rep; b_torn_bytes = b_torn })

(* Continuity first, over the whole batch: a gap fails before any of
   it applies.  Seqs at or below the running cursor are an overlapping
   pull and are skipped. *)
let apply_records t ~shard records =
  let from = Atomic.get t.applied.(shard) in
  let cur, fresh =
    List.fold_left
      (fun (cur, acc) (seq, m) ->
        if seq <= cur then (cur, acc)
        else if seq <> cur + 1 then
          failwith
            (Printf.sprintf
               "replica: shard %d stream gap: got seq %d after applied %d"
               shard seq cur)
        else (seq, m :: acc))
      (from, []) records
  in
  Primary.replay t.svc (Array.of_list (List.rev fresh));
  Atomic.set t.applied.(shard) cur;
  cur - from

let step t ~shard ?(max = Codec.rep_batch_max) () =
  let from = Atomic.get t.applied.(shard) in
  match t.pull ~shard ~from ~max with
  | Codec.Rep_batch { last; records } ->
      Atomic.incr t.pulls;
      let t0 = Obs.Clock.now_ns () in
      let n = apply_records t ~shard records in
      if n > 0 then Obs.Hist.add t.hist (Obs.Clock.now_ns () - t0);
      let applied = Atomic.get t.applied.(shard) in
      Atomic.set t.lag_.(shard) (if last > applied then last - applied else 0);
      if n = 0 && last <= applied then `Uptodate else `Applied n
  | Codec.Error m -> `Err m
  | r -> `Err ("unexpected pull reply " ^ Codec.reply_to_string r)

let sync ?(max_rounds = 1_000_000) t =
  let total = ref 0 in
  let rounds = ref 0 in
  let quiet = ref false in
  while not !quiet do
    incr rounds;
    if !rounds > max_rounds then
      failwith "replica: Follower.sync did not converge";
    quiet := true;
    for shard = 0 to t.svc.Shard.nshards - 1 do
      match step t ~shard () with
      | `Applied n ->
          total := !total + n;
          quiet := false
      | `Uptodate -> ()
      | `Err m -> failwith ("replica: Follower.sync: " ^ m)
    done
  done;
  !total

let apply_catchup t ~shard records =
  let applied = Atomic.get t.applied.(shard) in
  (match List.filter (fun (seq, _) -> seq > applied) records with
  | (first, _) :: _ when first > applied + 1 ->
      failwith
        (Printf.sprintf
           "replica: shard %d catch-up starts at seq %d but follower applied \
            only %d — snapshot bootstrap required"
           shard first applied)
  | _ -> ());
  let n = apply_records t ~shard records in
  Atomic.set t.lag_.(shard) 0;
  n

(* kvd's chase loop, here so its exit paths are testable: every way
   the loop can end — stop flag, primary gone, I/O failure, a pull
   error, a stream gap — RETURNS, so the caller's cleanup (report, fd
   close, [stop]) cannot be skipped by an escaping exception.  The bug
   this replaces: kvd turned [`Err] into [failwith], which matched
   neither of its handlers and flew past the cleanup, leaving the
   shard domains alive and the socket open. *)
let drive t ~running ?(poll_interval = 0.005) ?(on_progress = fun () -> ()) ()
    =
  let n = t.svc.Shard.nshards in
  let result = ref None in
  while !result = None && running () do
    try
      let idle = ref true in
      for shard = 0 to n - 1 do
        match step t ~shard () with
        | `Applied _ -> idle := false
        | `Uptodate -> ()
        | `Err m ->
            result := Some (`Pull_error m);
            raise Exit
      done;
      on_progress ();
      if !idle then Unix.sleepf poll_interval
    with
    | Exit -> ()
    | Service.Conn.Closed -> result := Some `Primary_gone
    (* A signal landing in sleepf/step is not a failure: the while
       condition re-checks [running]. *)
    | Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
        result := Some (`Io_error (Unix.error_message e))
    | Failure m -> result := Some (`Pull_error m)
  done;
  match !result with None -> `Stopped | Some r -> r

let applied t = Array.map Atomic.get t.applied
let lag t = Array.map Atomic.get t.lag_
let nshards t = t.svc.Shard.nshards
let sweep t ~shard = t.svc.Shard.snapshot ~shard ~gate:(fun _ -> ())
let apply_hist t = t.hist

let gauges t =
  let acc = ref [] in
  Array.iteri
    (fun i a ->
      acc := (Printf.sprintf "replica_applied_seq%d" i, Atomic.get a) :: !acc)
    t.applied;
  Array.iteri
    (fun i a ->
      acc := (Printf.sprintf "replica_lag_frames%d" i, Atomic.get a) :: !acc)
    t.lag_;
  ("replica_pulls", Atomic.get t.pulls)
  :: ("replica_apply_p99_ns", Obs.Hist.percentile t.hist 0.99)
  :: List.rev !acc

let stop t = t.svc.Shard.stop ()
