(* kvd — the sharded lock-free KV daemon over a Unix socket.

   The serving stack is lib/service end to end: length-prefixed frames
   (Codec) -> one serving-engine domain holding every connection
   (unix sockets on one producer tid, Conn; or per-connection shm
   rings, Shm_conn) ->
   hash-sharded mailboxes drained in batched SMR brackets
   (Shard) over the scheme/structure pair picked on the command line.

   `kvd --selftest` runs no socket at all: it drives the same stack
   through the in-process loopback (every opcode round-trips, then a
   short deterministic load burst) and exits nonzero on any failure —
   the CI smoke test. *)

let exercise_opcodes svc =
  let tid = 0 in
  let call = Service.Conn.Loopback.call in
  let conn = Service.Conn.Loopback.connect svc ~tid in
  let expect what expected got =
    if got <> expected then
      failwith
        (Printf.sprintf "%s: expected %s, got %s" what
           (Service.Codec.reply_to_string expected)
           (Service.Codec.reply_to_string got))
  in
  expect "get missing" Service.Codec.Not_found (call conn (Service.Codec.Get 1));
  expect "put fresh" Service.Codec.Created
    (call conn (Service.Codec.Put { key = 1; value = 10 }));
  expect "get present" (Service.Codec.Value 10) (call conn (Service.Codec.Get 1));
  expect "put overwrite" Service.Codec.Updated
    (call conn (Service.Codec.Put { key = 1; value = 11 }));
  expect "cas mismatch" Service.Codec.Cas_fail
    (call conn (Service.Codec.Cas { key = 1; expected = 10; desired = 99 }));
  expect "cas match" Service.Codec.Cas_ok
    (call conn (Service.Codec.Cas { key = 1; expected = 11; desired = 12 }));
  expect "get after cas" (Service.Codec.Value 12)
    (call conn (Service.Codec.Get 1));
  expect "del present" Service.Codec.Deleted (call conn (Service.Codec.Del 1));
  expect "del missing" Service.Codec.Not_found (call conn (Service.Codec.Del 1));
  expect "cas missing" Service.Codec.Not_found
    (call conn (Service.Codec.Cas { key = 1; expected = 0; desired = 0 }))

let selftest ~scheme ~structure ~shards ~clients ~duration =
  let svc =
    Service.Shard.create
      ~structure:(Workload.Registry.find_structure structure)
      ~scheme:(Workload.Registry.find_scheme scheme)
      { Service.Shard.default_config with Service.Shard.shards; clients }
  in
  Fun.protect
    ~finally:(fun () -> svc.Service.Shard.stop ())
    (fun () ->
      exercise_opcodes svc;
      let res =
        Service.Loadgen.run svc ~mode:Service.Loadgen.Closed ~clients ~duration
          ~dist:(Workload.Keydist.uniform ~range:4096)
          ~mix:Service.Loadgen.read_mostly ~seed:7 ()
      in
      if res.Service.Loadgen.ops = 0 then failwith "selftest: no ops completed";
      if res.Service.Loadgen.errors > 0 then
        failwith
          (Printf.sprintf "selftest: %d error replies"
             res.Service.Loadgen.errors);
      Printf.printf
        "selftest ok: %s/%s, %d shards — opcodes round-tripped, %d ops in \
         %.2fs (%.0f ops/s), %s\n"
        svc.Service.Shard.scheme_name svc.Service.Shard.structure_name shards
        res.Service.Loadgen.ops res.Service.Loadgen.wall
        res.Service.Loadgen.throughput
        (Service.Slo.report svc.Service.Shard.slo))

let daemon ~socket ~transport ~loop ~scheme ~structure ~shards ~clients
    ~mailbox_cap ~batch ~wal ~arena ~arena_policy =
  (* A client vanishing mid-reply must cost its connection, not the
     daemon: EPIPE on that fd instead of process death. *)
  Service.Conn.ignore_sigpipe ();
  let arena_t =
    if not arena then None
    else begin
      (match transport with
      | `Shm -> ()
      | `Unix ->
          failwith
            "kvd: --arena requires --transport shm (the arena file lives \
             beside the listen FIFO and is served by reference over it)");
      if wal <> None then
        failwith
          "kvd: --arena and --wal are incompatible (arena blobs do not fit \
           the int-valued mutation log)";
      let policy =
        match Shmalloc.Arena.policy_of_string arena_policy with
        | Some p -> p
        | None ->
            failwith
              (Printf.sprintf "kvd: bad --arena-policy %S (handoff|epoch)"
                 arena_policy)
      in
      (* Claim the rendezvous path first: the stale sweep that clears a
         dead predecessor's litter also targets its arena file, and must
         run before our own O_EXCL create. *)
      Service.Shm_conn.claim_listen_path socket;
      Some
        (Shmalloc.Arena.create ~path:(socket ^ ".arena") ~slots:clients
           ~policy ~tids:shards ())
    end
  in
  let cfg =
    {
      Service.Shard.default_config with
      Service.Shard.shards;
      clients;
      mailbox_capacity = mailbox_cap;
      batch;
      (* Either transport serves from the one domain of the serving
         engine, which leases this slot and answers GETs inline from
         committed state (Shard.read_inline). *)
      zc_readers = 1;
      arena = arena_t;
    }
  in
  let structure = Workload.Registry.find_structure structure in
  let scheme = Workload.Registry.find_scheme scheme in
  let svc, primary =
    match wal with
    | None -> (Service.Shard.create ~structure ~scheme cfg, None)
    | Some dir ->
        let store = Replica.Store.fs ~dir in
        let p, boot = Replica.Primary.create ~structure ~scheme cfg ~store () in
        Array.iteri
          (fun shard (r : Replica.Wal.recovery) ->
            Printf.printf
              "kvd: shard %d wal: %d records (last seq %d), %d snapshot \
               bindings, %d replayed%s\n"
              shard r.Replica.Wal.r_records r.Replica.Wal.r_last_seq
              boot.Replica.Primary.b_snap_bindings.(shard)
              boot.Replica.Primary.b_replayed.(shard)
              (match r.Replica.Wal.r_truncated_segment with
              | Some seg ->
                  Printf.sprintf ", torn tail: %d bytes truncated from %s"
                    r.Replica.Wal.r_truncated_bytes seg
              | None -> ""))
          boot.Replica.Primary.b_recovery;
        (p.Replica.Primary.svc, Some p)
  in
  let ext = Option.map (fun p req -> Replica.Primary.handle p req) primary in
  (* Self-pipe shutdown: OCaml signal handlers run at allocation/poll
     points on whichever domain trips them, so tearing down in the
     handler itself (shutdown, snapshot fsyncs, Primary.stop's domain
     joins) can deadlock on a channel or service lock the interrupted
     domain holds.  The handler only flips a flag and writes one
     pre-allocated byte; the main loop wakes from select and runs the
     whole teardown in ordinary context.  Installed before the
     listener exists: a client that signals as soon as the socket
     appears must get the orderly teardown, never the default
     action. *)
  let stopping = Atomic.make false in
  let wake_rd, wake_wr = Unix.pipe ~cloexec:true () in
  let wake_byte = Bytes.make 1 '!' in
  let request_stop _ =
    if not (Atomic.exchange stopping true) then
      ignore (Unix.write wake_wr wake_byte 0 1)
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  let server =
    match transport with
    | `Unix ->
        `Unix_srv (Service.Conn.serve_unix svc ~path:socket ?ext ~backend:loop ())
    | `Shm -> `Shm_srv (Service.Shm_conn.serve svc ~path:socket ?ext ())
  in
  Printf.printf
    "kvd: serving %s/%s with %d shards, %d client slots on %s (%s)%s\n%!"
    svc.Service.Shard.scheme_name svc.Service.Shard.structure_name shards
    clients socket
    (match (transport, loop) with
    | `Shm, _ -> "shm rings"
    | `Unix, `Evloop p ->
        Printf.sprintf "unix socket, event loop: %s"
          (match p with
          | `Epoll -> "epoll"
          | `Select -> "select"
          | `Auto -> if Service.Poller.available () then "epoll" else "select"))
    (match wal with
    | Some dir -> Printf.sprintf " (wal: %s, group commit)" dir
    | None -> "");
  (match arena_t with
  | Some a ->
      Printf.printf
        "kvd: value arena %s (%d bytes, %d classes, %d slots, %s)\n%!"
        (Shmalloc.Arena.path a)
        (Shmalloc.Arena.size_bytes a)
        (Shmalloc.Arena.nclasses a)
        (Shmalloc.Arena.nslots a)
        (Shmalloc.Arena.policy_name (Shmalloc.Arena.policy a))
  | None -> ());
  (* The select times out rather than blocking forever.  Under OCaml
     5.1 a SIGINT sent right after start-up was seen recorded (caught,
     not pending) with its handler never run, until a second signal
     arrived.  Leaving the blocking section re-checks the recorded
     signals, so such a handler runs at the next timeout at the
     latest. *)
  let rec wait () =
    match Unix.select [ wake_rd ] [] [] 0.25 with
    | [], _, _ -> if not (Atomic.get stopping) then wait ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        if not (Atomic.get stopping) then wait ()
  in
  wait ();
  (* Teardown, on the main flow: stop the listener, then the service
     (queued requests get Error replies).  With a WAL, snapshot every
     shard first so the next boot replays a short log instead of the
     whole history. *)
  Printf.printf "kvd: shutting down (%d processed, %d shed, %s)\n%!"
    (svc.Service.Shard.processed ())
    (svc.Service.Shard.sheds ())
    (Service.Slo.report svc.Service.Shard.slo);
  (* Either transport unlinks everything it put on disk: the socket
     path, or the listen FIFO plus every live connection's segment file
     and doorbell FIFOs — each segment stamped closed first so blocked
     clients observe the close instead of hanging on a dead ring. *)
  (match server with
  | `Unix_srv s -> Service.Conn.shutdown s
  | `Shm_srv s -> Service.Shm_conn.shutdown s);
  (match primary with
  | Some p ->
      for shard = 0 to shards - 1 do
        let file, seq = Replica.Primary.snapshot_shard p ~shard () in
        Printf.printf "kvd: shard %d snapshot %s (seq %d)\n%!" shard file seq
      done;
      Replica.Primary.stop p
  | None -> svc.Service.Shard.stop ());
  (* Arena teardown last: consumers (its retire builders' users) are
     joined, remote readers saw their segments close.  Flush drains
     the builders so the unreclaimed gauge reads honestly in traces,
     then close, unmap, unlink. *)
  (match arena_t with
  | Some a ->
      Shmalloc.Arena.flush a;
      Shmalloc.Arena.mark_closed a;
      Shmalloc.Arena.detach a;
      Shmalloc.Arena.unlink a
  | None -> ());
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ wake_rd; wake_wr ]

(* Follower mode: connect to a live kvd --wal daemon, discover its
   shard count from Rep_info, then chase the committed record stream
   with pulls, applying into a local service of the same shape. *)
let follow ~target ~scheme ~structure ~clients =
  Service.Conn.ignore_sigpipe ();
  let fd = Service.Conn.connect_unix ~path:target in
  let nshards =
    match Service.Conn.call_fd fd Service.Codec.Rep_info with
    | Service.Codec.Rep_state committed -> Array.length committed
    | Service.Codec.Error m ->
        failwith (Printf.sprintf "%s is not serving a WAL (%s)" target m)
    | r ->
        failwith
          ("unexpected Rep_info reply " ^ Service.Codec.reply_to_string r)
  in
  let pull ~shard ~from ~max =
    Service.Conn.call_fd fd (Service.Codec.Rep_pull { shard; from; max })
  in
  let f, _ =
    Replica.Follower.create
      ~structure:(Workload.Registry.find_structure structure)
      ~scheme:(Workload.Registry.find_scheme scheme)
      {
        Service.Shard.default_config with
        Service.Shard.shards = nshards;
        clients = max 2 clients;
      }
      ~pull ()
  in
  Printf.printf "kvd: following %s (%d shards) into %s/%s\n%!" target nshards
    scheme structure;
  (* Same handler discipline as [daemon]: the handler only flips the
     flag (an Atomic — it may run on any domain); the loop notices
     within one poll interval.  Every exit of [Follower.drive] is a
     return — including pull errors and stream gaps, which previously
     escaped as [Failure] past the handlers below and skipped this
     cleanup, leaving the shard domains alive and the socket open. *)
  let running = Atomic.make true in
  let stop _ = Atomic.set running false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  let last_report = ref (Unix.gettimeofday ()) in
  let report () =
    let applied = Replica.Follower.applied f in
    let lag = Replica.Follower.lag f in
    Printf.printf "kvd: applied %s, lag %s frames\n%!"
      (String.concat "," (Array.to_list (Array.map string_of_int applied)))
      (String.concat "," (Array.to_list (Array.map string_of_int lag)))
  in
  let on_progress () =
    let now = Unix.gettimeofday () in
    if now -. !last_report > 2.0 then begin
      last_report := now;
      report ()
    end
  in
  (match
     Replica.Follower.drive f
       ~running:(fun () -> Atomic.get running)
       ~on_progress ()
   with
  | `Stopped -> ()
  | `Primary_gone ->
      Printf.eprintf "kvd: primary hung up; follower state kept to here\n%!"
  | `Io_error m -> Printf.eprintf "kvd: lost the primary: %s\n%!" m
  | `Pull_error m ->
      Printf.eprintf "kvd: pull failed (%s); follower state kept to here\n%!" m);
  report ();
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Replica.Follower.stop f

(* Instance scoping: --name stamps the listen path (and therefore the
   shm segment/doorbell litter, which is swept by listen-path prefix)
   so N daemons on one host never claim each other's files. *)
let resolve_socket ~socket ~name =
  match (socket, name) with
  | Some s, _ -> s
  | None, None -> "/tmp/kvd.sock"
  | None, Some n ->
      String.iter
        (fun ch ->
          match ch with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> ()
          | _ -> failwith (Printf.sprintf "kvd: bad --name %S (use [A-Za-z0-9_-])" n))
        n;
      Printf.sprintf "/tmp/kvd-%s.sock" n

let main socket name transport loop scheme structure shards clients mailbox_cap
    batch selftest_flag duration wal follow_target arena arena_policy =
  if selftest_flag then
    match
      selftest ~scheme ~structure ~shards ~clients ~duration
    with
    | () -> 0
    | exception e ->
        Printf.eprintf "kvd selftest FAILED: %s\n" (Printexc.to_string e);
        1
  else
    match follow_target with
    | Some target -> (
        match follow ~target ~scheme ~structure ~clients with
        | () -> 0
        | exception e ->
            Printf.eprintf "kvd follower FAILED: %s\n" (Printexc.to_string e);
            1)
    | None -> (
        match
          let socket = resolve_socket ~socket ~name in
          daemon ~socket ~transport ~loop ~scheme ~structure ~shards ~clients
            ~mailbox_cap ~batch ~wal ~arena ~arena_policy
        with
        | () -> 0
        | exception Failure m ->
            Printf.eprintf "%s\n" m;
            1
        | exception Service.Conn.Addr_in_use path ->
            Printf.eprintf
              "kvd: %s is owned by a live daemon (connect probe answered) — \
               pick another --socket or stop the incumbent\n"
              path;
            1
        | exception (Replica.Wal.Corrupt { shard; segment; seq; reason } as e)
          ->
            Printf.eprintf
              "kvd: wal corrupt (shard %d, %s, seq %d): %s\n%s\n" shard
              segment seq reason (Printexc.to_string e);
            1)

open Cmdliner

let socket =
  Arg.(
    value & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen path: a unix socket, or with $(b,--transport shm) the \
           rendezvous FIFO clients announce their segments to.  Default \
           /tmp/kvd.sock, or /tmp/kvd-$(b,NAME).sock under $(b,--name).")

let name_arg =
  Arg.(
    value & opt (some string) None
    & info [ "name" ] ~docv:"NAME"
        ~doc:
          "Instance name: scopes the listen path (and, for shm, the \
           segment/doorbell files swept on stale-socket claims) to \
           /tmp/kvd-$(docv).*, so several daemons share a host without \
           claiming each other's litter.  [A-Za-z0-9_-] only.")

let loop =
  Arg.(
    value
    & opt
        (enum
           [
             ("epoll", (`Evloop `Epoll : Service.Conn.backend));
             ("select", `Evloop `Select);
             ("auto", `Evloop `Auto);
           ])
        (`Evloop `Auto)
    & info [ "loop" ] ~docv:"POLLER"
        ~doc:
          "Readiness poller of the $(b,--transport unix) event loop: \
           $(b,epoll), $(b,select), or $(b,auto) (epoll where available). \
           A single pump domain holds every connection on one tid, so \
           fan-in is bounded by fds, not domains.")

let transport =
  Arg.(
    value
    & opt (enum [ ("unix", `Unix); ("shm", `Shm) ]) `Unix
    & info [ "transport" ] ~docv:"KIND"
        ~doc:
          "Wire transport: $(b,unix) (sockets) or $(b,shm) (per-connection \
           mmap'd ring pairs; no syscall per op under load).  Either way \
           one serving-engine domain holds every connection.  Same frames, \
           same opcodes.")

let scheme =
  Arg.(
    value & opt string "hyaline"
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:
          "Reclamation scheme for maps and mailboxes (leaky, ebr, hp, he, \
           ibr, hyaline, hyaline1s, hyalines, crystalline, ...).")

let structure =
  Arg.(
    value & opt string "hashmap"
    & info [ "ds" ] ~docv:"STRUCTURE"
        ~doc:"Backing map: list, hashmap, bonsai, or nmtree.")

let shards =
  Arg.(
    value & opt int 4
    & info [ "shards" ] ~docv:"N" ~doc:"Partitions / consumer domains.")

let clients =
  Arg.(
    value & opt int 8
    & info [ "clients" ] ~docv:"N"
        ~doc:
          "Client tid slots.  Each $(b,--transport shm) connection leases \
           one, so this caps concurrent shm connections; the unix event \
           loop holds all of its connections on slot 0.")

let mailbox_cap =
  Arg.(
    value & opt int 256
    & info [ "mailbox-cap" ] ~docv:"N"
        ~doc:"Per-shard mailbox bound; a full mailbox sheds.")

let batch =
  Arg.(
    value & opt int 64
    & info [ "batch" ] ~docv:"N"
        ~doc:"Max requests executed per enter/leave bracket.")

let selftest_flag =
  Arg.(
    value & flag
    & info [ "selftest" ]
        ~doc:
          "Run the in-process loopback smoke test (every opcode plus a \
           short closed-loop burst) instead of serving; exit 1 on failure.")

let duration =
  Arg.(
    value & opt float 0.3
    & info [ "duration" ] ~docv:"SECONDS"
        ~doc:"Load-burst length for --selftest.")

let wal =
  Arg.(
    value & opt (some string) None
    & info [ "wal" ] ~docv:"DIR"
        ~doc:
          "Durable mode: group-commit every acked mutation to per-shard \
           write-ahead logs under $(docv) (created if missing), recover \
           from the newest snapshot plus the log on boot, and serve the \
           replication opcodes (Rep_info/Rep_pull) to followers.  SIGINT \
           snapshots each shard before exiting.")

let follow_target =
  Arg.(
    value & opt (some string) None
    & info [ "follow" ] ~docv:"SOCKET"
        ~doc:
          "Follower mode: connect to a live $(b,kvd --wal) daemon on \
           $(docv), discover its shard count, and continuously pull and \
           apply its committed record stream into a local service of the \
           same shape.  Prints applied seqs and lag every 2s.")

let arena_flag =
  Arg.(
    value & flag
    & info [ "arena" ]
        ~doc:
          "Store values as blocks in a shared-memory arena beside the \
           listen path ($(b,--transport shm) only).  Clients that \
           negotiate over A_info get GETs answered by reference — \
           ⟨class, offset, len, generation⟩ — and copy the payload out \
           of their own mapping, validating the generation stamp after \
           the copy.  Incompatible with $(b,--wal).")

let arena_policy =
  Arg.(
    value & opt string "handoff"
    & info [ "arena-policy" ] ~docv:"POLICY"
        ~doc:
          "Cross-process reclamation policy for $(b,--arena): \
           $(b,handoff) (Hyaline-S-style batch handoff to reservation \
           slots; a stalled remote reader pins a bounded batch count) or \
           $(b,epoch) (EBR baseline; a stalled reader pins every block \
           retired since it entered).")

let cmd =
  let doc = "Sharded lock-free KV daemon (lib/service over lib/smr)." in
  Cmd.v (Cmd.info "kvd" ~doc)
    Term.(
      const main $ socket $ name_arg $ transport $ loop $ scheme $ structure
      $ shards $ clients $ mailbox_cap $ batch $ selftest_flag $ duration $ wal
      $ follow_target $ arena_flag $ arena_policy)

let () = exit (Cmd.eval' cmd)
