(* The chaos engine: drive one (scheme, structure) service through one
   fault plan and account for every request.

   Determinism is the whole game.  The engine is a single-driver
   closed loop over virtual time — the step counter, not the wall
   clock, is the plan's timestamp domain — with three rules:

   - One normal request per step, generated from the plan seed.  A
     request routed to a healthy shard is waited for before the next
     step (closed loop); one routed to a stalled/dead shard is left
     in flight ("deferred") or immediately shed — which of the two is
     decided by mailbox occupancy alone.
   - Before any shard-addressed fault is injected, the engine barriers
     until that shard has zero outstanding replies and an empty
     mailbox (and, for stalls, until the consumer confirms it is
     parked).  So every fault always lands on the same queue state,
     and the deferred/shed split is a function of the plan.
   - The reaper polls once per step, and detection counts polls from
     the confirmed death — a crash at step t recovers at exactly
     t + detect.

   Wall-clock durations (recovery ns, run seconds, raw peak backlog)
   are measured but quarantined in fields the deterministic outputs
   (trace, matrix row, CSV) never print. *)

type cfg = {
  scheme : Workload.Registry.scheme;
  structure : Workload.Registry.structure;
  shards : int;
  clients : int;
  mailbox_capacity : int;
  batch : int;
  key_range : int;
  detect : int;  (** reaper polls between crash and recovery *)
  bound : int;  (** ctl-plane backlog bound checked at detection *)
  socket_path : string option;  (** needed only for net/churn plans *)
}

let default_cfg ~scheme ~structure =
  {
    scheme;
    structure;
    shards = 4;
    clients = 4;
    mailbox_capacity = 16;
    batch = 16;
    key_range = 256;
    detect = 160;
    bound = 96;
    socket_path = None;
  }

type result = {
  r_scheme : string;
  r_structure : string;
  r_steps : int;
  r_prompt : int;  (** closed-loop requests answered in-step *)
  r_deferred : int;  (** accepted by a stalled/dead shard's mailbox *)
  r_shed : int;  (** rejected at a full mailbox *)
  r_oom_injected : int;  (** probes answered with a clean injected Error *)
  r_net_faults : int;
  r_churns : int;
  r_crashes : int;
  r_recoveries : int;
  r_recovery_steps : int;  (** virtual detection latency; -1 if no crash *)
  r_mem_bounded : bool option;
      (** ctl backlog at every detection point within [bound]; [None]
          when the plan crashed nothing *)
  r_peak_ctl : int;  (** wall-clock-ish magnitude; not in the trace *)
  r_bound : int;
  r_recovery_ns : int;  (** max crash→respawn wall latency *)
  r_wall_s : float;
  r_series : int array;  (** per-step ctl unreclaimed, for --plot *)
  r_oracle : Oracle.verdict;
  r_trace : string list;
}

let availability r =
  let denom = r.r_prompt + r.r_deferred + r.r_shed in
  if denom = 0 then 100.0
  else 100.0 *. float_of_int (r.r_prompt + r.r_deferred) /. float_of_int denom

type shard_state = Alive | Stalled of int | Dead of int

let run cfg (plan : Fault.plan) =
  if cfg.clients < 3 then invalid_arg "Engine.run: clients < 3";
  let svc =
    Service.Shard.create ~structure:cfg.structure ~scheme:cfg.scheme
      {
        Service.Shard.default_config with
        Service.Shard.shards = cfg.shards;
        clients = cfg.clients;
        mailbox_capacity = cfg.mailbox_capacity;
        batch = cfg.batch;
        seed = plan.Fault.seed;
        smr = { Smr.Config.default with Smr.Config.check_uaf = true };
      }
  in
  (* The driver's control-plane slot.  The socket server's event loop
     submits every connection under tid 0, so the top slot is never
     the server's — the driver's brackets and the server's never share
     a tid. *)
  let driver_tid = cfg.clients - 1 in
  let server =
    if Fault.uses_net plan then begin
      let path =
        match cfg.socket_path with
        | Some p -> p
        | None ->
            Filename.concat (Filename.get_temp_dir_name ())
              (Printf.sprintf "chaos-%d.sock" (Unix.getpid ()))
      in
      Some (Service.Conn.serve_unix svc ~path ~faults:(Service.Conn.Faults.create ()) (), path)
    end
    else None
  in
  let t0 = Obs.Clock.now_ns () in
  let rng = Prims.Rng.create ~seed:((plan.Fault.seed * 2) + 1) in
  let state = Array.make cfg.shards Alive in
  let pending = Array.init cfg.shards (fun _ -> Atomic.make 0) in
  let ops = ref [] (* (request, reply cell), newest first *) in
  let trace = ref [] in
  let failures = ref [] in
  let emit line = trace := line :: !trace in
  let fail msg = failures := msg :: !failures in
  let prompt = ref 0
  and deferred = ref 0
  and shed = ref 0
  and oom_injected = ref 0
  and net_faults = ref 0
  and churns = ref 0
  and crashes = ref 0
  and recoveries = ref 0
  and recovery_steps = ref (-1)
  and mem_bounded = ref None
  and peak_ctl = ref 0
  and recovery_ns = ref 0 in
  let crash_step = Array.make cfg.shards (-1) in
  let crash_ns = Array.make cfg.shards 0 in
  let series = Array.make plan.Fault.steps 0 in
  let ctl_unreclaimed () =
    Smr.Stats.unreclaimed_of
      (Smr.Stats.snapshot (svc.Service.Shard.control_stats ()))
  in
  let spin_until ~what pred =
    let deadline = Unix.gettimeofday () +. 30.0 in
    let spins = ref 0 in
    let rec go () =
      if pred () then true
      else begin
        incr spins;
        if !spins land 255 = 0 then begin
          if Unix.gettimeofday () > deadline then begin
            fail (Printf.sprintf "timeout waiting for %s" what);
            false
          end
          else begin
            Unix.sleepf 0.0001;
            go ()
          end
        end
        else begin
          Domain.cpu_relax ();
          go ()
        end
      end
    in
    go ()
  in
  (* All replies for [shard] fired and its mailbox is empty: the fixed
     queue state every fault injection starts from. *)
  let barrier shard =
    ignore
      (spin_until
         ~what:(Printf.sprintf "shard %d to quiesce" shard)
         (fun () ->
           Atomic.get pending.(shard) = 0
           && svc.Service.Shard.shard_depth shard = 0))
  in
  let submit req =
    let s = svc.Service.Shard.shard_of_key (Service.Codec.key_of_request req) in
    let cell = Atomic.make None in
    Atomic.incr pending.(s);
    svc.Service.Shard.submit ~tid:driver_tid req (fun r ->
        Atomic.set cell (Some r);
        Atomic.decr pending.(s));
    (s, cell)
  in
  let submit_wait req =
    let _, cell = submit req in
    ops := (req, cell) :: !ops;
    if
      spin_until ~what:(Service.Codec.request_to_string req) (fun () ->
          Atomic.get cell <> None)
    then Atomic.get cell
    else None
  in
  (* Probe keys live in [key_range, ∞): never generated by the normal
     stream, never swept, so a probe that (correctly) fails to insert
     leaves the model untouched. *)
  let probe_key = ref cfg.key_range in
  let next_probe_key shard =
    while svc.Service.Shard.shard_of_key !probe_key <> shard do
      incr probe_key
    done;
    let k = !probe_key in
    incr probe_key;
    k
  in
  let gen_request () =
    let key = Prims.Rng.below rng cfg.key_range in
    match Prims.Rng.below rng 100 with
    | r when r < 55 -> Service.Codec.Get key
    | r when r < 80 ->
        Service.Codec.Put { key; value = Prims.Rng.below rng 1000 }
    | r when r < 92 -> Service.Codec.Del key
    | _ ->
        Service.Codec.Cas
          {
            key;
            expected = Prims.Rng.below rng 1000;
            desired = Prims.Rng.below rng 1000;
          }
  in
  let reaper = Reaper.create ~svc ~threshold:cfg.detect in
  let inject step (ev : Fault.event) =
    let shard = ev.Fault.shard in
    match ev.Fault.kind with
    | Fault.Stall d ->
        barrier shard;
        svc.Service.Shard.set_stalled ~shard true;
        ignore
          (spin_until
             ~what:(Printf.sprintf "shard %d to park" shard)
             (fun () -> svc.Service.Shard.is_parked shard));
        state.(shard) <- Stalled (step + d);
        emit (Fault.event_to_string ev)
    | Fault.Crash ->
        barrier shard;
        emit (Fault.event_to_string ev);
        svc.Service.Shard.crash ~shard;
        state.(shard) <- Dead step;
        crash_step.(shard) <- step;
        crash_ns.(shard) <- Obs.Clock.now_ns ();
        incr crashes
    | Fault.Oom n ->
        barrier shard;
        emit (Fault.event_to_string ev);
        svc.Service.Shard.inject_oom ~shard ~n;
        let clean = ref 0 in
        for _ = 1 to n do
          let req =
            Service.Codec.Put { key = next_probe_key shard; value = step }
          in
          match submit_wait req with
          | Some r when Oracle.is_injected_oom r -> incr clean
          | Some r ->
              fail
                (Printf.sprintf "oom probe %s got %s, not an injected error"
                   (Service.Codec.request_to_string req)
                   (Service.Codec.reply_to_string r))
          | None -> ()
        done;
        oom_injected := !oom_injected + !clean;
        emit
          (Printf.sprintf
             "[t=%04d] shard %d: %d/%d alloc failures surfaced as clean \
              Error replies, no mutation"
             step shard !clean n)
    | Fault.Net nf -> (
        match server with
        | None -> fail "net fault without a server"
        | Some (srv, path) -> (
            emit (Fault.event_to_string ev);
            let faults = Service.Conn.faults srv in
            (match nf with
            | Fault.Truncate_reply ->
                Service.Conn.Faults.arm_truncate_reply faults 1
            | Fault.Close_mid_frame ->
                Service.Conn.Faults.arm_close_mid_frame faults 1
            | Fault.Delayed_read ->
                Service.Conn.Faults.arm_delayed_read faults 1);
            let fd = Service.Conn.connect_unix ~path in
            (* Gets only: a reply lost mid-frame must not desynchronize
               the oracle, and a Get mutates nothing. *)
            let req = Service.Codec.Get (Prims.Rng.below rng cfg.key_range) in
            (match nf with
            | Fault.Delayed_read -> (
                match Service.Conn.call_fd fd req with
                | reply ->
                    ops := (req, Atomic.make (Some reply)) :: !ops;
                    incr net_faults;
                    emit
                      (Printf.sprintf
                         "[t=%04d] shard %d: delayed read absorbed, reply \
                          intact"
                         step shard)
                | exception Service.Conn.Closed ->
                    fail "delayed read lost its reply")
            | Fault.Truncate_reply | Fault.Close_mid_frame -> (
                match Service.Conn.call_fd fd req with
                | exception Service.Conn.Closed ->
                    incr net_faults;
                    emit
                      (Printf.sprintf
                         "[t=%04d] shard %d: client observed mid-frame EOF, \
                          service unharmed"
                         step shard)
                | reply ->
                    fail
                      (Printf.sprintf "net fault delivered a whole reply: %s"
                         (Service.Codec.reply_to_string reply))));
            try Unix.close fd with Unix.Unix_error _ -> ()))
    | Fault.Churn -> (
        match server with
        | None -> fail "churn without a server"
        | Some (_, path) ->
            emit (Fault.event_to_string ev);
            let fd = Service.Conn.connect_unix ~path in
            (* Two bytes of a length prefix, then vanish: the event
               loop must drop that connection and leave the stream
               position of nobody else disturbed. *)
            (try ignore (Unix.write fd (Bytes.make 2 '\001') 0 2)
             with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ());
            incr churns)
  in
  let reap step =
    List.iter
      (fun shard ->
        let u = ctl_unreclaimed () in
        if u > !peak_ctl then peak_ctl := u;
        let within = u <= cfg.bound in
        mem_bounded :=
          Some (match !mem_bounded with None -> within | Some b -> b && within);
        let now = Obs.Clock.now_ns () in
        if crash_step.(shard) >= 0 then begin
          let lat = step - crash_step.(shard) in
          if lat > !recovery_steps then recovery_steps := lat;
          let ns = now - crash_ns.(shard) in
          if ns > !recovery_ns then recovery_ns := ns
        end;
        Reaper.recover reaper ~shard;
        state.(shard) <- Alive;
        incr recoveries;
        emit
          (Printf.sprintf
             "[t=%04d] shard %d: heartbeat frozen %d polls, death confirmed \
              — ctl bracket force-exited, consumer respawned, backlog \
              draining (ctl backlog %s bound)"
             step shard cfg.detect
             (if within then "within" else "EXCEEDS")))
      (Reaper.poll reaper)
  in
  let events = Array.of_list plan.Fault.events in
  let next_ev = ref 0 in
  for step = 0 to plan.Fault.steps - 1 do
    Array.iteri
      (fun shard st ->
        match st with
        | Stalled until when until <= step ->
            svc.Service.Shard.set_stalled ~shard false;
            state.(shard) <- Alive;
            emit (Printf.sprintf "[t=%04d] shard %d: unstall" step shard)
        | _ -> ())
      state;
    while
      !next_ev < Array.length events && events.(!next_ev).Fault.at = step
    do
      inject step events.(!next_ev);
      incr next_ev
    done;
    reap step;
    let req = gen_request () in
    let s, cell = submit req in
    ops := (req, cell) :: !ops;
    (match state.(s) with
    | Alive ->
        if
          spin_until ~what:(Service.Codec.request_to_string req) (fun () ->
              Atomic.get cell <> None)
        then incr prompt
    | Stalled _ | Dead _ -> (
        match Atomic.get cell with
        | Some Service.Codec.Shed -> incr shed
        | Some _ | None -> incr deferred));
    let u = ctl_unreclaimed () in
    if u > !peak_ctl then peak_ctl := u;
    series.(step) <- u
  done;
  (* Heal: lift surviving stalls, recover any crash the plan left
     unrecovered (a mis-sized plan, not the normal path), and wait for
     every deferred reply before sweeping. *)
  Array.iteri
    (fun shard st ->
      match st with
      | Stalled _ ->
          svc.Service.Shard.set_stalled ~shard false;
          state.(shard) <- Alive;
          emit
            (Printf.sprintf "[t=%04d] shard %d: final heal: unstall"
               plan.Fault.steps shard)
      | Dead _ ->
          Reaper.recover reaper ~shard;
          state.(shard) <- Alive;
          incr recoveries;
          emit
            (Printf.sprintf "[t=%04d] shard %d: final heal: recover"
               plan.Fault.steps shard)
      | Alive -> ())
    state;
  for shard = 0 to cfg.shards - 1 do
    barrier shard
  done;
  let final = ref [] in
  for key = 0 to cfg.key_range - 1 do
    match submit_wait (Service.Codec.Get key) with
    | Some reply -> final := (key, reply) :: !final
    | None -> ()
  done;
  (match server with Some (srv, _) -> Service.Conn.shutdown srv | None -> ());
  svc.Service.Shard.stop ();
  let ctl_left = ctl_unreclaimed () in
  let data_left =
    List.map
      (fun st -> Smr.Stats.unreclaimed_of (Smr.Stats.snapshot st))
      (svc.Service.Shard.data_stats ())
  in
  let resolved =
    List.rev_map
      (fun (req, cell) ->
        match Atomic.get cell with
        | Some r -> (req, r)
        | None -> (req, Service.Codec.Error "reply never arrived"))
      !ops
  in
  let verdict =
    Oracle.run ~ops:resolved ~final:(List.rev !final) ~ctl_unreclaimed:ctl_left
      ~data_unreclaimed:data_left
  in
  let verdict =
    if !failures = [] then verdict
    else
      {
        verdict with
        Oracle.ok = false;
        failures = verdict.Oracle.failures @ List.rev !failures;
      }
  in
  {
    r_scheme = svc.Service.Shard.scheme_name;
    r_structure = svc.Service.Shard.structure_name;
    r_steps = plan.Fault.steps;
    r_prompt = !prompt;
    r_deferred = !deferred;
    r_shed = !shed;
    r_oom_injected = !oom_injected;
    r_net_faults = !net_faults;
    r_churns = !churns;
    r_crashes = !crashes;
    r_recoveries = !recoveries;
    r_recovery_steps = !recovery_steps;
    r_mem_bounded = !mem_bounded;
    r_peak_ctl = !peak_ctl;
    r_bound = cfg.bound;
    r_recovery_ns = !recovery_ns;
    r_wall_s = float_of_int (Obs.Clock.now_ns () - t0) /. 1e9;
    r_series = series;
    r_oracle = verdict;
    r_trace = List.rev !trace;
  }
