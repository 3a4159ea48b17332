(* Durability tap on the consumer's execution path.  The disabled
   state is the distinguished [no_hook] instance, recognized by
   physical equality before anything else — the same
   zero-cost-when-off discipline as [Conn.Faults.none] /
   [Obs.Probe.is_noop] (measured in bench/main.ml, replica rows). *)
type ack_hook = {
  h_mutation : shard:int -> Codec.mutation -> unit;
  h_commit : shard:int -> unit;
}

let no_hook = { h_mutation = (fun ~shard:_ _ -> ()); h_commit = (fun ~shard:_ -> ()) }

(* Execution-time admission filter, same zero-cost-when-off shape.
   Unlike a transport-side check, this one runs on the consumer — in
   the same serial stream as the requests it judges — so a verdict
   cannot be stale by the time the request executes (the cluster's
   cutover-atomicity hinge: an ownership freeze that reaches the
   consumer before a request is executed is always seen by that
   request's check). *)
type admit = tid:int -> Codec.request -> Codec.reply option

let admit_all : admit = fun ~tid:_ _ -> None

type config = {
  shards : int;
  clients : int;
  mailbox_capacity : int;
  batch : int;
  trim_every : int;
  smr : Smr.Config.t;
  objectives : Slo.objective list;
  seed : int;
  hook : ack_hook;
  zc_readers : int;
  (* When set, values live as blocks in this shared arena and the map
     stores packed references ([Shmalloc.Arena.Ref]) instead of
     values; the serving engine may then answer shm GETs by reference.
     The arena is owned by the caller (created beside the listen
     path, torn down after [stop]). *)
  arena : Shmalloc.Arena.t option;
}

let default_config =
  {
    shards = 4;
    clients = 8;
    mailbox_capacity = 256;
    batch = 64;
    trim_every = 16;
    smr = Smr.Config.default;
    objectives = [];
    seed = 2024;
    hook = no_hook;
    zc_readers = 0;
    arena = None;
  }

type t = {
  submit : tid:int -> Codec.request -> (Codec.reply -> unit) -> unit;
  nshards : int;
  clients : int;
  shard_of_key : int -> int;
  shard_depth : int -> int;
  sheds : unit -> int;
  processed : unit -> int;
  slo : Slo.t;
  batch_hist : Obs.Hist.t;
  gauges : unit -> (string * int) list;
  control_stats : unit -> Smr.Stats.t;
  data_stats : unit -> Smr.Stats.t list;
  set_stalled : shard:int -> bool -> unit;
  is_stalled : int -> bool;
  is_parked : int -> bool;
  crash : shard:int -> unit;
  recover : shard:int -> unit;
  consumer_alive : int -> bool;
  heartbeat : int -> int;
  inject_oom : shard:int -> n:int -> unit;
  snapshot : shard:int -> gate:(int -> unit) -> (int * int) list;
  snapshot_keys :
    shard:int -> keys:int list -> gate:(int -> unit) -> (int * int option) list;
  zc_readers : int;
  zc_lease : unit -> int option;
  zc_release : int -> unit;
  zc_enter : slot:int -> unit;
  zc_leave : slot:int -> unit;
  zc_get : slot:int -> int -> int option;
  commit_epoch : int -> int;
  inline_gets : int Atomic.t;
  inline_declined : int Atomic.t;
  arena : Shmalloc.Arena.t option;
  set_admit : admit -> unit;
  stop : unit -> unit;
  scheme_name : string;
  structure_name : string;
}

type env = {
  req : Codec.request;
  tid : int;  (* producing tid, for the admission filter's exemptions *)
  born_ns : int;
  reply : Codec.reply -> unit;
}

(* SplitMix-style finalizer (truncated to OCaml's 63-bit ints):
   adjacent hot keys (Zipf ranks 0,1,2…) must not land on one shard. *)
let mix_key k =
  let h = k * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 32)) land max_int

module Core (T : Smr.Tracker.S) (Mk : Dstruct.Map_intf.MAKER) = struct
  module Map = Mk (T)
  module MB = Mailbox.Make (T)

  type shard = {
    idx : int;
    map : Map.t;
    mailbox : env MB.t;
    stall_flag : bool Atomic.t;
    (* Set by the consumer while it is parked inside its stall
       bracket: lets a fault injector wait for the park to be
       effective (mailbox guaranteed undrained from here on). *)
    parked : bool Atomic.t;
    (* The consumer's one place to wait, idle or stalled.  Everything
       that changes what it waits for — a mailed request, [stop],
       [crash], [set_stalled] — publishes first and wakes it after. *)
    bell : Prims.Parker.t;
    (* Chaos: when set, the consumer takes a control-plane reservation
       and terminates without leaving it — the paper's §2.3 dead
       thread.  [dead] records that the bracket is abandoned until
       [recover] force-exits it. *)
    crash_flag : bool Atomic.t;
    dead : bool Atomic.t;
    (* Bumped once per consumer loop iteration; freezes when the
       consumer stalls, dies, or parks idle on an empty mailbox.  A
       frozen heartbeat is therefore never proof of death on its own
       (the reaper also requires a confirmed-dead domain). *)
    heartbeat : int Atomic.t;
    shard_processed : int Atomic.t;
    (* Even while the map holds only committed state.  The hooked
       consumer makes it odd before a run's first non-read executes
       and even again once [h_commit] returns; a run that raises
       leaves it odd for good (the map may hold its unacked writes).
       [read_inline] accepts a read only if it saw the same even value
       before and after it. *)
    epoch : int Atomic.t;
    (* At most one snapshot reader holds the map's tid-1 bracket. *)
    snap_busy : bool Atomic.t;
    mutable consumer : unit Domain.t option;
  }

  (* Arena-backed execution: the map stores packed references, the
     bytes live in the shared mapping.  The consumer is each block's
     only retirer (it is the map's only mutator), which is what makes
     [read_own] safe without a stamp check and the retire-time
     generation bump a plain store. *)
  let arena_exec a ~idx map (req : Codec.request) : Codec.reply =
    let tid = 0 in
    let module Arena = Shmalloc.Arena in
    let put_payload key payload =
      match Arena.alloc_put a payload with
      | None -> Codec.Error "arena full"
      | Some r -> (
          let old = Map.get map ~tid key in
          ignore (Map.put map ~tid key r);
          match old with
          | Some old_r ->
              Arena.retire a ~tid:idx old_r;
              Codec.Updated
          | None -> Codec.Created)
    in
    match req with
    | Codec.Get k | Codec.Getc k -> (
        match Map.get map ~tid k with
        | Some r -> Codec.reply_of_arena_payload (Arena.read_own a r)
        | None -> Codec.Not_found)
    | Codec.Put { key; value } -> put_payload key (Codec.arena_payload_int value)
    | Codec.Putb { key; value } ->
        if String.length value > Codec.blob_max then
          Codec.Error "value too large"
        else put_payload key (Codec.arena_payload_blob value)
    | Codec.Del k -> (
        match Map.get map ~tid k with
        | None -> Codec.Not_found
        | Some r ->
            ignore (Map.remove map ~tid k);
            Arena.retire a ~tid:idx r;
            Codec.Deleted)
    | Codec.Cas { key; expected; desired } -> (
        match Map.get map ~tid key with
        | None -> Codec.Not_found
        | Some r -> (
            match Codec.arena_payload_int_value (Arena.read_own a r) with
            | Some v when v = expected -> (
                match Arena.alloc_put a (Codec.arena_payload_int desired) with
                | None -> Codec.Error "arena full"
                | Some nr ->
                    ignore (Map.put map ~tid key nr);
                    Arena.retire a ~tid:idx r;
                    Codec.Cas_ok)
            | _ -> Codec.Cas_fail))
    | Codec.A_info ->
        (* Slot assignment is transport business (the serving engine
           answers this for ring connections before routing); through
           any other path the daemon
           only discloses that an arena exists. *)
        Codec.Arena_info
          { slot = -1; gen = Arena.generation a; size = Arena.size_bytes a }
    | Codec.Rep_info | Codec.Rep_pull _ ->
        Codec.Error "replication not enabled on this server"
    | Codec.Cl_info | Codec.Cl_grant _ | Codec.Cl_freeze _ | Codec.Cl_release _
    | Codec.Cl_snap _ | Codec.Cl_apply _ | Codec.Cl_base _ | Codec.Cl_purge _
      ->
        Codec.Error "clustering not enabled on this server"

  let exec ~arena ~idx map (req : Codec.request) : Codec.reply =
    match arena with
    | Some a -> arena_exec a ~idx map req
    | None -> (
        let tid = 0 in
        match req with
        | Codec.Get k | Codec.Getc k -> (
            match Map.get map ~tid k with
            | Some v -> Codec.Value v
            | None -> Codec.Not_found)
        | Codec.Put { key; value } ->
            if Map.put map ~tid key value then Codec.Created else Codec.Updated
        | Codec.Del k ->
            if Map.remove map ~tid k then Codec.Deleted else Codec.Not_found
        | Codec.Cas { key; expected; desired } -> (
            (* The consumer is this map's only mutator, so the
               read-test-write below is atomic by construction. *)
            match Map.get map ~tid key with
            | None -> Codec.Not_found
            | Some v when v <> expected -> Codec.Cas_fail
            | Some _ ->
                ignore (Map.put map ~tid key desired);
                Codec.Cas_ok)
        | Codec.Putb _ -> Codec.Error "arena not enabled on this server"
        | Codec.A_info -> Codec.Arena_info { slot = -1; gen = 0; size = 0 }
        | Codec.Rep_info | Codec.Rep_pull _ ->
            (* Replication opcodes are answered by the transport's [ext]
               handler (Conn) before shard routing; reaching the data path
               means the daemon has no replication enabled. *)
            Codec.Error "replication not enabled on this server"
        | Codec.Cl_info | Codec.Cl_grant _ | Codec.Cl_freeze _
        | Codec.Cl_release _ | Codec.Cl_snap _ | Codec.Cl_apply _
        | Codec.Cl_base _ | Codec.Cl_purge _ ->
            (* Likewise for the cluster-control opcodes (Cluster.Node's
               [ext] handler). *)
            Codec.Error "clustering not enabled on this server")

  let make ~scheme_name ~structure_name (c : config) : t =
    if c.shards <= 0 then invalid_arg "Shard.create: shards <= 0";
    if c.clients <= 0 then invalid_arg "Shard.create: clients <= 0";
    if c.batch <= 0 then invalid_arg "Shard.create: batch <= 0";
    if c.trim_every <= 0 then invalid_arg "Shard.create: trim_every <= 0";
    if c.zc_readers < 0 then invalid_arg "Shard.create: zc_readers < 0";
    let ctl_cfg = { c.smr with Smr.Config.nthreads = c.clients + c.shards } in
    let ctl_tracker = T.create ctl_cfg in
    (* Each map's operating threads: its consumer (tid 0, the only
       mutator), at most one snapshot reader (tid 1, a read-only
       bracket-held traversal), and [zc_readers] zero-copy client
       slots (tids 2..) that read the live map from {e outside} the
       consumer, each inside its own enter/leave bracket. *)
    let map_cfg = { c.smr with Smr.Config.nthreads = 2 + c.zc_readers } in
    let running = Atomic.make true in
    let stopped = Atomic.make false in
    let sheds = Atomic.make 0 in
    let slo = Slo.create ~objectives:c.objectives () in
    let batch_hist = Obs.Hist.create () in
    let shards =
      Array.init c.shards (fun idx ->
          {
            idx;
            map = Map.create ~seed:(c.seed + idx) ~cfg:map_cfg ();
            mailbox =
              MB.create ~tracker:ctl_tracker ~cfg:ctl_cfg
                ~capacity:c.mailbox_capacity ();
            stall_flag = Atomic.make false;
            parked = Atomic.make false;
            bell = Prims.Parker.create ();
            crash_flag = Atomic.make false;
            dead = Atomic.make false;
            heartbeat = Atomic.make 0;
            shard_processed = Atomic.make 0;
            epoch = Atomic.make 0;
            snap_busy = Atomic.make false;
            consumer = None;
          })
    in
    let shard_of_key k = mix_key k mod c.shards in
    let admit_cell = Atomic.make admit_all in
    let run_batch sh batch =
      (* One filter read per drained run: the filter is installed once
         at wiring time (before traffic), never swapped under load. *)
      let adm = Atomic.get admit_cell in
      let exec_env env =
        if adm == admit_all then exec ~arena:c.arena ~idx:sh.idx sh.map env.req
        else
          match adm ~tid:env.tid env.req with
          | Some r -> r
          | None -> exec ~arena:c.arena ~idx:sh.idx sh.map env.req
      in
      Obs.Hist.add batch_hist (List.length batch);
      (* One bracket per drained run — enter/leave amortized across
         the batch, reservation refreshed with the cheaper trim
         (Figure 10b's discipline) so a long run does not pin its own
         early retirements for the whole bracket. *)
      Map.enter sh.map ~tid:0;
      if c.hook == no_hook then begin
        (* No durability tap: reply inline, as ever. *)
        let i = ref 0 in
        List.iter
          (fun env ->
            incr i;
            if !i mod c.trim_every = 0 then Map.trim sh.map ~tid:0;
            let reply =
              try exec_env env
              with e -> Codec.Error (Printexc.to_string e)
            in
            Atomic.incr sh.shard_processed;
            Slo.record slo ~ns:(Obs.Clock.now_ns () - env.born_ns);
            env.reply reply)
          batch;
        Map.leave sh.map ~tid:0
      end
      else begin
        (* Group commit: execute the whole drained run, feeding every
           applied mutation to the hook, then make the run durable
           with ONE h_commit — the same amortization the bracket buys
           for reservations, applied to the fsync — and only then fire
           the acks.  An ack therefore always implies durability.  If
           h_commit (or the tap) raises, nothing of this run is acked
           and the exception propagates: the consumer dies as a
           crashed primary, never acking what is not on disk. *)
        let acked = ref [] in
        let marked = ref false in
        (try
           let i = ref 0 in
           List.iter
             (fun env ->
               incr i;
               if !i mod c.trim_every = 0 then Map.trim sh.map ~tid:0;
               (match env.req with
               | Codec.Get _ | Codec.Getc _ -> ()
               | _ ->
                   (* An odd epoch on entry is a raised run's: it
                      stays odd for good. *)
                   if (not !marked) && Atomic.get sh.epoch land 1 = 0
                   then begin
                     marked := true;
                     Atomic.incr sh.epoch
                   end);
               let reply =
                 try exec_env env
                 with e -> Codec.Error (Printexc.to_string e)
               in
               (match Codec.mutation_of_exec env.req reply with
               | Some m -> c.hook.h_mutation ~shard:sh.idx m
               | None -> ());
               Atomic.incr sh.shard_processed;
               acked := (env, reply) :: !acked)
             batch
         with e ->
           Map.leave sh.map ~tid:0;
           raise e);
        Map.leave sh.map ~tid:0;
        c.hook.h_commit ~shard:sh.idx;
        if !marked then Atomic.incr sh.epoch;
        List.iter
          (fun (env, reply) ->
            Slo.record slo ~ns:(Obs.Clock.now_ns () - env.born_ns);
            env.reply reply)
          (List.rev !acked)
      end
    in
    let consumer sh () =
      let qtid = c.clients + sh.idx in
      let crashed = ref false in
      let unstalled () =
        (not (Atomic.get sh.stall_flag))
        || (not (Atomic.get running))
        || Atomic.get sh.crash_flag
      in
      let has_work () =
        MB.depth sh.mailbox > 0
        || (not (Atomic.get running))
        || Atomic.get sh.stall_flag
        || Atomic.get sh.crash_flag
      in
      while Atomic.get running && not !crashed do
        Atomic.incr sh.heartbeat;
        if Atomic.get sh.crash_flag then begin
          (* Die mid-bracket: take a control-plane reservation and
             terminate without leaving it.  The heartbeat freezes
             here; queued requests stay queued; the reservation pins
             everything retired after it until [recover] force-exits
             the bracket — the paper's §2.3 dead-thread adversary. *)
          T.enter ctl_tracker ~tid:qtid;
          crashed := true
        end
        else begin
          if Atomic.get sh.stall_flag then begin
            (* Park inside a control-plane bracket: a reservation that
               never advances while the other shards keep mailing —
               the paper's stalled adversary, aimed at our own
               plumbing. *)
            T.enter ctl_tracker ~tid:qtid;
            Atomic.set sh.parked true;
            while not (unstalled ()) do
              Prims.Parker.park sh.bell ~ready:unstalled
            done;
            Atomic.set sh.parked false;
            T.leave ctl_tracker ~tid:qtid
          end;
          match MB.drain sh.mailbox ~tid:qtid ~max:c.batch with
          | [] -> Prims.Parker.park sh.bell ~ready:has_work
          | batch -> (
              try run_batch sh batch
              with _ ->
                (* The durability hook died mid-commit (torn write,
                   full disk, injected crash): the run's acks are
                   forfeit — they were never durable — and this
                   consumer becomes a dead primary shard.  Same
                   posture as [crash_flag]: take a control-plane
                   reservation, freeze the heartbeat, terminate.
                   Queued and un-acked requests stay unanswered until
                   [recover]/[stop], exactly like a process kill. *)
                T.enter ctl_tracker ~tid:qtid;
                Atomic.set sh.crash_flag true;
                Atomic.set sh.dead true;
                crashed := true)
        end
      done;
      if not !crashed then begin
        (* Fail whatever is still queued so no submitter waits
           forever. *)
        List.iter
          (fun env -> env.reply (Codec.Error "service stopped"))
          (MB.drain sh.mailbox ~tid:qtid ~max:max_int);
        MB.flush sh.mailbox ~tid:qtid
      end
    in
    Array.iter (fun sh -> sh.consumer <- Some (Domain.spawn (consumer sh))) shards;
    let submit ~tid req reply =
      if not (Atomic.get running) then reply (Codec.Error "service stopped")
      else begin
        let sh = shards.(shard_of_key (Codec.key_of_request req)) in
        let env = { req; tid; born_ns = Obs.Clock.now_ns (); reply } in
        if MB.try_send sh.mailbox ~tid env then Prims.Parker.wake sh.bell
        else begin
          Atomic.incr sheds;
          reply Codec.Shed
        end
      end
    in
    let processed () =
      Array.fold_left (fun a sh -> a + Atomic.get sh.shard_processed) 0 shards
    in
    let crash ~shard =
      let sh = shards.(shard) in
      if Atomic.get sh.dead then
        invalid_arg "Shard.crash: consumer already crashed";
      Atomic.set sh.crash_flag true;
      Prims.Parker.wake sh.bell;
      (* Join so death is synchronous: when [crash] returns, the
         consumer domain is gone and its control-plane bracket is
         provably abandoned — a deterministic starting point for
         whatever the caller injects next. *)
      (match sh.consumer with
      | Some d ->
          Domain.join d;
          sh.consumer <- None
      | None -> ());
      Atomic.set sh.dead true
    in
    let recover ~shard =
      let sh = shards.(shard) in
      if not (Atomic.get sh.dead) then
        invalid_arg "Shard.recover: consumer is not crashed";
      let qtid = c.clients + sh.idx in
      (* A consumer that died from a durability-hook failure (rather
         than [crash]) terminated on its own: join it here so nothing
         races on the tid's scheme state below. *)
      (match sh.consumer with
      | Some d ->
          Domain.join d;
          sh.consumer <- None
      | None -> ());
      (* Force-exit the abandoned bracket on behalf of the dead
         domain.  Safe: the owner is joined, so nothing races on the
         tid's scheme state, and [tid] is only an index — the slot is
         transparently reusable afterwards (paper §2.4). *)
      T.leave ctl_tracker ~tid:qtid;
      Atomic.set sh.crash_flag false;
      Atomic.set sh.dead false;
      (* Respawn; the new consumer drains the backlog naturally. *)
      sh.consumer <- Some (Domain.spawn (consumer sh))
    in
    let snapshot ~shard ~gate =
      let sh = shards.(shard) in
      if not (Atomic.compare_and_set sh.snap_busy false true) then
        invalid_arg "Shard.snapshot: a snapshot of this shard is in progress";
      Fun.protect ~finally:(fun () -> Atomic.set sh.snap_busy false)
      @@ fun () ->
      (* The long-running-reader adversary, on purpose: the whole
         traversal runs inside ONE tid-1 bracket while the consumer
         keeps mutating and retiring under tid 0.  Robust schemes
         (Hyaline-S/1S) keep the shard's unreclaimed backlog bounded
         for the duration; EBR's grows with the consumer's retirement
         traffic (the `experiments replicate` snap column).  [gate] is
         called with 0 after entering the bracket and with i before
         binding i+1 — chaos hangs in it to stretch the bracket
         deterministically. *)
      Map.enter sh.map ~tid:1;
      let bindings =
        Fun.protect ~finally:(fun () -> Map.leave sh.map ~tid:1)
        @@ fun () ->
        gate 0;
        let i = ref 0 in
        Map.fold sh.map ~tid:1
          (fun acc k v ->
            incr i;
            gate !i;
            (k, v) :: acc)
          []
      in
      (* Key order: the on-disk snapshot is deterministic for a given
         state regardless of structure/bucket iteration order. *)
      List.sort compare bindings
    in
    (* The delta-snapshot traversal: same tid-1 bracket, same snap_busy
       exclusivity, same gate cadence as the full fold — but it visits
       only [keys] (a dirty set's contents), so its cost scales with
       the write rate, not the map size.  [None] per key = deleted
       since it was dirtied: the caller ships it as a tombstone. *)
    let snapshot_keys ~shard ~keys ~gate =
      let sh = shards.(shard) in
      if not (Atomic.compare_and_set sh.snap_busy false true) then
        invalid_arg "Shard.snapshot: a snapshot of this shard is in progress";
      Fun.protect ~finally:(fun () -> Atomic.set sh.snap_busy false)
      @@ fun () ->
      Map.enter sh.map ~tid:1;
      let entries =
        Fun.protect ~finally:(fun () -> Map.leave sh.map ~tid:1)
        @@ fun () ->
        gate 0;
        let i = ref 0 in
        List.rev_map
          (fun k ->
            incr i;
            gate !i;
            (k, Map.get sh.map ~tid:1 k))
          keys
      in
      List.sort compare entries
    in
    (* Zero-copy reader slots.  A leased slot owns map tid [2 + slot]
       on EVERY shard map; [zc_enter] opens a bracket on each (the
       reader does not know which shard its keys live on), after which
       [zc_get] reads the live structure directly from the client's
       own domain — no mailbox hop, no consumer mediation, no reply
       copy.  Transparent schemes (Hyaline*/Crystalline) need nothing
       per read — the bracket is the whole protocol; slot-protected
       ones (HP/HE/IBR) take their per-dereference guards inside
       [Map.get] under the slot's tid, so the same client code is
       correct for every scheme in the registry.  A reader that stalls
       inside its bracket is exactly the paper's §2.3 adversary: the
       chaos check asserts robust schemes bound what it can pin. *)
    let zc_slots = Atomic.make (List.init c.zc_readers Fun.id) in
    let rec zc_lease () =
      match Atomic.get zc_slots with
      | [] -> None
      | s :: rest as old ->
          if Atomic.compare_and_set zc_slots old rest then Some s
          else zc_lease ()
    in
    let rec zc_release s =
      if s < 0 || s >= c.zc_readers then
        invalid_arg "Shard.zc_release: slot out of range";
      let old = Atomic.get zc_slots in
      if not (Atomic.compare_and_set zc_slots old (s :: old)) then zc_release s
    in
    let zc_check slot =
      if slot < 0 || slot >= c.zc_readers then
        invalid_arg "Shard.zc: slot out of range"
    in
    let zc_enter ~slot =
      zc_check slot;
      Array.iter (fun sh -> Map.enter sh.map ~tid:(2 + slot)) shards
    in
    let zc_leave ~slot =
      zc_check slot;
      Array.iter (fun sh -> Map.leave sh.map ~tid:(2 + slot)) shards
    in
    let zc_get ~slot k =
      zc_check slot;
      let sh = shards.(shard_of_key k) in
      Map.get sh.map ~tid:(2 + slot) k
    in
    (* An installed admission filter reads as a commit in flight on
       every shard: ownership is only judged on the consumer, so a
       node with a filter answers no GET inline. *)
    let commit_epoch i =
      if Atomic.get admit_cell != admit_all then 1
      else Atomic.get shards.(i).epoch
    in
    let inline_gets = Atomic.make 0 in
    let inline_declined = Atomic.make 0 in
    let gauges () =
      let per_shard =
        Array.to_list shards
        |> List.concat_map (fun sh ->
               [
                 (Printf.sprintf "kv_shard%d_depth" sh.idx, MB.depth sh.mailbox);
                 ( Printf.sprintf "kv_shard%d_processed" sh.idx,
                   Atomic.get sh.shard_processed );
                 ( Printf.sprintf "kv_shard%d_stalled" sh.idx,
                   if Atomic.get sh.stall_flag then 1 else 0 );
                 ( Printf.sprintf "kv_shard%d_heartbeat" sh.idx,
                   Atomic.get sh.heartbeat );
                 ( Printf.sprintf "kv_shard%d_dead" sh.idx,
                   if Atomic.get sh.dead then 1 else 0 );
               ])
      in
      per_shard
      @ [
          ("kv_shed_total", Atomic.get sheds);
          ("kv_processed_total", processed ());
          ("kv_inline_gets", Atomic.get inline_gets);
          ("kv_inline_declined", Atomic.get inline_declined);
          ( "kv_ctl_unreclaimed",
            Smr.Stats.unreclaimed_of (Smr.Stats.snapshot (T.stats ctl_tracker))
          );
        ]
      @ List.map (fun (n, v) -> ("kv_ctl_" ^ n, v)) (T.gauges ctl_tracker)
    in
    let stop () =
      if Atomic.compare_and_set stopped false true then begin
        Atomic.set running false;
        Array.iter
          (fun sh ->
            Prims.Parker.wake sh.bell;
            match sh.consumer with
            | Some d ->
                Domain.join d;
                sh.consumer <- None
            | None -> ())
          shards;
        (* Crashed-and-never-recovered shards: their dead consumer
           could not run the shutdown path above — exit the abandoned
           bracket, fail the backlog, and flush in its stead. *)
        Array.iter
          (fun sh ->
            if Atomic.get sh.dead then begin
              let qtid = c.clients + sh.idx in
              T.leave ctl_tracker ~tid:qtid;
              List.iter
                (fun env -> env.reply (Codec.Error "service stopped"))
                (MB.drain sh.mailbox ~tid:qtid ~max:max_int);
              MB.flush sh.mailbox ~tid:qtid;
              Atomic.set sh.dead false;
              Atomic.set sh.crash_flag false
            end)
          shards;
        Array.iter
          (fun sh ->
            (* tids 1.. (snapshot and zero-copy readers) never retire,
               so their flushes are no-ops for Hyaline and limbo scans
               for baselines — safe outside a bracket either way. *)
            for tid = 0 to map_cfg.Smr.Config.nthreads - 1 do
              Map.flush sh.map ~tid
            done)
          shards;
        for tid = 0 to ctl_cfg.Smr.Config.nthreads - 1 do
          T.flush ctl_tracker ~tid
        done
      end
    in
    {
      submit;
      nshards = c.shards;
      clients = c.clients;
      shard_of_key;
      shard_depth = (fun i -> MB.depth shards.(i).mailbox);
      sheds = (fun () -> Atomic.get sheds);
      processed;
      slo;
      batch_hist;
      gauges;
      control_stats = (fun () -> T.stats ctl_tracker);
      data_stats =
        (fun () -> Array.to_list shards |> List.map (fun sh -> Map.stats sh.map));
      set_stalled =
        (fun ~shard v ->
          Atomic.set shards.(shard).stall_flag v;
          Prims.Parker.wake shards.(shard).bell);
      is_stalled = (fun i -> Atomic.get shards.(i).stall_flag);
      is_parked = (fun i -> Atomic.get shards.(i).parked);
      crash;
      recover;
      consumer_alive = (fun i -> not (Atomic.get shards.(i).dead));
      heartbeat = (fun i -> Atomic.get shards.(i).heartbeat);
      inject_oom =
        (fun ~shard ~n -> Map.inject_alloc_failures shards.(shard).map ~n);
      snapshot;
      snapshot_keys;
      zc_readers = c.zc_readers;
      zc_lease;
      zc_release;
      zc_enter;
      zc_leave;
      zc_get;
      commit_epoch;
      inline_gets;
      inline_declined;
      arena = c.arena;
      set_admit = (fun a -> Atomic.set admit_cell a);
      stop;
      scheme_name;
      structure_name;
    }
end

let create ~(structure : Workload.Registry.structure)
    ~(scheme : Workload.Registry.scheme) (c : config) : t =
  if not (Workload.Registry.compatible ~structure ~scheme) then
    invalid_arg
      (Printf.sprintf "Shard.create: %s is not run on %s"
         scheme.Workload.Registry.s_name structure.Workload.Registry.d_name);
  let module T = (val scheme.Workload.Registry.s_mod : Smr.Tracker.S) in
  let module Mk = (val structure.Workload.Registry.d_mod : Dstruct.Map_intf.MAKER)
  in
  let module C = Core (T) (Mk) in
  C.make ~scheme_name:scheme.Workload.Registry.s_name
    ~structure_name:structure.Workload.Registry.d_name c

(* Only through [t]'s fields, so a wrapped [t] (a tracing probe) sees
   every inline read.  An epoch even and unchanged across the bracket
   means every write the read can have seen belongs to a run whose
   commit had returned: the consumer marks odd before its first write
   and map publications are atomic, so a read that sees a write also
   sees the odd mark on the second epoch load (for the hashmap's plain
   in-place value store, see shard.mli). *)
let read_inline t ~slot key =
  let shard = t.shard_of_key key in
  let e = t.commit_epoch shard in
  if e land 1 = 1 then begin
    Atomic.incr t.inline_declined;
    None
  end
  else begin
    t.zc_enter ~slot;
    match t.zc_get ~slot key with
    | exception ex ->
        t.zc_leave ~slot;
        raise ex
    | v ->
        t.zc_leave ~slot;
        if t.commit_epoch shard = e then begin
          Atomic.incr t.inline_gets;
          Some v
        end
        else begin
          Atomic.incr t.inline_declined;
          None
        end
  end

(* Reply waits park on the caller's domain-local parker; the reply
   callback runs on the shard consumer, so it captures the parker
   rather than looking one up. *)
let call t ~tid req =
  let cell = Atomic.make None in
  let p = Prims.Parker.local () in
  t.submit ~tid req (fun r ->
      Atomic.set cell (Some r);
      Prims.Parker.wake p);
  let replied () = Option.is_some (Atomic.get cell) in
  while not (replied ()) do
    Prims.Parker.park p ~ready:replied
  done;
  Option.get (Atomic.get cell)

(* Ordered windowed submit.  [Shed] only ever comes back
   synchronously from [submit] (consumers never produce it), so a shed
   request is resubmitted before request [i+1] is mailed and each
   shard's FIFO mailbox sees the requests in index order. *)
let pipeline t ~tid ?(window = 128) ?(on_reply = fun _ _ -> ()) ~n gen =
  let outstanding = Atomic.make 0 in
  let p = Prims.Parker.local () in
  let wait limit =
    let below () = Atomic.get outstanding <= limit in
    while not (below ()) do
      Prims.Parker.park p ~ready:below
    done
  in
  let backoff = Prims.Backoff.create () in
  let rec send i req =
    let shed = ref false in
    Atomic.incr outstanding;
    t.submit ~tid req (fun reply ->
        match reply with
        | Codec.Shed ->
            shed := true;
            Atomic.decr outstanding
        | r ->
            on_reply i r;
            Atomic.decr outstanding;
            Prims.Parker.wake p);
    if !shed then begin
      (* One of our own replies landing frees a mailbox slot; with
         none outstanding, other producers hold the mailbox. *)
      let o = Atomic.get outstanding in
      if o > 0 then wait (o - 1) else Prims.Backoff.once backoff;
      send i req
    end
    else Prims.Backoff.reset backoff
  in
  for i = 0 to n - 1 do
    wait (window - 1);
    send i (gen i)
  done;
  wait 0
