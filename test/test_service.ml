(* The KV service layer: codec round-trips, mailbox bounds, loopback
   round-trips of every opcode against a live sharded service, load
   shedding at capacity, fixed-seed loadgen determinism, and the
   Zipf inverse-CDF cache. *)

let strip_frame buf =
  let b = Buffer.to_bytes buf in
  Bytes.sub b 4 (Bytes.length b - 4)

(* ------------------------------------------------------------------ *)
(* Codec *)

let roundtrip_request req =
  let buf = Buffer.create 32 in
  Service.Codec.encode_request buf req;
  Service.Codec.request_of_payload (strip_frame buf)

let roundtrip_reply rep =
  let buf = Buffer.create 32 in
  Service.Codec.encode_reply buf rep;
  Service.Codec.reply_of_payload (strip_frame buf)

let test_codec_requests () =
  List.iter
    (fun req ->
      Alcotest.(check bool)
        (Service.Codec.request_to_string req)
        true
        (roundtrip_request req = req))
    [
      Service.Codec.Get 0;
      Service.Codec.Get max_int;
      Service.Codec.Get min_int;
      Service.Codec.Put { key = 42; value = -42 };
      Service.Codec.Put { key = max_int; value = min_int };
      Service.Codec.Del 7;
      Service.Codec.Cas { key = 3; expected = -1; desired = max_int };
    ]

let test_codec_replies () =
  List.iter
    (fun rep ->
      Alcotest.(check bool)
        (Service.Codec.reply_to_string rep)
        true
        (roundtrip_reply rep = rep))
    [
      Service.Codec.Value 99;
      Service.Codec.Value min_int;
      Service.Codec.Not_found;
      Service.Codec.Created;
      Service.Codec.Updated;
      Service.Codec.Deleted;
      Service.Codec.Cas_ok;
      Service.Codec.Cas_fail;
      Service.Codec.Shed;
      Service.Codec.Error "shard on fire: \xe2\x98\x83";
      Service.Codec.Error "";
    ]

let test_codec_malformed () =
  let raises b =
    match Service.Codec.request_of_payload b with
    | _ -> false
    | exception Service.Codec.Malformed _ -> true
  in
  Alcotest.(check bool) "empty payload" true (raises Bytes.empty);
  Alcotest.(check bool) "unknown opcode" true (raises (Bytes.make 9 '\xff'));
  Alcotest.(check bool)
    "truncated operand" true
    (raises (Bytes.make 5 '\x01'));
  (match Service.Codec.reply_of_payload (Bytes.make 3 '\x7f') with
  | _ -> Alcotest.fail "reply decoder accepted garbage"
  | exception Service.Codec.Malformed _ -> ())

(* ------------------------------------------------------------------ *)
(* Mailbox *)

module MB = Service.Mailbox.Make (Smr.Ebr)

let test_mailbox_bounds () =
  let cfg = { Smr.Config.default with Smr.Config.nthreads = 2 } in
  let mb = MB.create ~cfg ~capacity:4 () in
  for i = 1 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "send %d" i)
      true
      (MB.try_send mb ~tid:0 i)
  done;
  Alcotest.(check bool) "full mailbox sheds" false (MB.try_send mb ~tid:0 5);
  Alcotest.(check int) "depth" 4 (MB.depth mb);
  Alcotest.(check int) "rejected" 1 (MB.rejected mb);
  Alcotest.(check (list int)) "fifo drain" [ 1; 2 ] (MB.drain mb ~tid:1 ~max:2);
  Alcotest.(check bool) "slot freed" true (MB.try_send mb ~tid:0 6);
  Alcotest.(check (list int))
    "rest in order" [ 3; 4; 6 ]
    (MB.drain mb ~tid:1 ~max:100);
  Alcotest.(check (list int)) "empty" [] (MB.drain mb ~tid:1 ~max:100);
  Alcotest.(check int) "sent total" 5 (MB.sent mb);
  MB.flush mb ~tid:1

(* ------------------------------------------------------------------ *)
(* Live service: loopback, shedding, sockets *)

let make_svc ?(shards = 2) ?(clients = 2) ?(mailbox_capacity = 64)
    ?(scheme = "hyaline") ?(zc_readers = 0) () =
  Service.Shard.create
    ~structure:(Workload.Registry.find_structure "hashmap")
    ~scheme:(Workload.Registry.find_scheme scheme)
    {
      Service.Shard.default_config with
      Service.Shard.shards;
      clients;
      mailbox_capacity;
      zc_readers;
    }

let test_pipeline_order_under_sheds () =
  (* A 2-slot mailbox under a 128-request window sheds most
     submissions.  Writes to one key must still apply in index order:
     every key ends at its last written value, and each index gets
     exactly one (non-shed) reply. *)
  let svc = make_svc ~mailbox_capacity:2 () in
  Fun.protect
    ~finally:(fun () -> svc.Service.Shard.stop ())
    (fun () ->
      let n = 2000 and keys = 8 in
      let replies = Array.init n (fun _ -> Atomic.make 0) in
      let non_shed = Atomic.make true in
      Service.Shard.pipeline svc ~tid:0 ~window:128 ~n
        ~on_reply:(fun i r ->
          if r = Service.Codec.Shed then Atomic.set non_shed false;
          Atomic.incr replies.(i))
        (fun i -> Service.Codec.Put { key = i mod keys; value = i + 1 });
      Alcotest.(check bool) "the window outran the mailbox" true
        (svc.Service.Shard.sheds () > 0);
      Alcotest.(check bool) "on_reply never sees a shed" true
        (Atomic.get non_shed);
      Array.iteri
        (fun i c ->
          if Atomic.get c <> 1 then
            Alcotest.failf "index %d got %d replies" i (Atomic.get c))
        replies;
      for key = 0 to keys - 1 do
        let last = n - keys + key + 1 in
        match Service.Shard.call svc ~tid:0 (Service.Codec.Get key) with
        | Service.Codec.Value v ->
            Alcotest.(check int) (Printf.sprintf "key %d final value" key) last v
        | r ->
            Alcotest.failf "key %d answered %s" key
              (Service.Codec.reply_to_string r)
      done)

let test_loopback_opcodes () =
  let svc = make_svc () in
  Fun.protect
    ~finally:(fun () -> svc.Service.Shard.stop ())
    (fun () ->
      let conn = Service.Conn.Loopback.connect svc ~tid:0 in
      let call = Service.Conn.Loopback.call conn in
      let check name expected req =
        Alcotest.(check string)
          name
          (Service.Codec.reply_to_string expected)
          (Service.Codec.reply_to_string (call req))
      in
      check "get missing" Service.Codec.Not_found (Service.Codec.Get 1);
      check "put fresh" Service.Codec.Created
        (Service.Codec.Put { key = 1; value = 10 });
      check "get hit" (Service.Codec.Value 10) (Service.Codec.Get 1);
      check "put overwrite" Service.Codec.Updated
        (Service.Codec.Put { key = 1; value = 11 });
      check "cas mismatch" Service.Codec.Cas_fail
        (Service.Codec.Cas { key = 1; expected = 10; desired = 99 });
      check "cas match" Service.Codec.Cas_ok
        (Service.Codec.Cas { key = 1; expected = 11; desired = 12 });
      check "get after cas" (Service.Codec.Value 12) (Service.Codec.Get 1);
      check "del hit" Service.Codec.Deleted (Service.Codec.Del 1);
      check "del missing" Service.Codec.Not_found (Service.Codec.Del 1);
      check "cas missing" Service.Codec.Not_found
        (Service.Codec.Cas { key = 1; expected = 0; desired = 0 }))

let test_shed_at_capacity () =
  (* One shard, tiny mailbox, parked consumer: submissions queue until
     the free-list runs dry, then shed synchronously.  Unparking
     drains the backlog — nothing is lost, nothing double-replied. *)
  let svc = make_svc ~shards:1 ~mailbox_capacity:2 () in
  Fun.protect
    ~finally:(fun () -> svc.Service.Shard.stop ())
    (fun () ->
      svc.Service.Shard.set_stalled ~shard:0 true;
      Alcotest.(check bool) "stalled gauge" true (svc.Service.Shard.is_stalled 0);
      let sheds = Atomic.make 0 in
      let done_ = Atomic.make 0 in
      let submitted = ref 0 in
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Atomic.get sheds = 0 && Unix.gettimeofday () < deadline do
        incr submitted;
        svc.Service.Shard.submit ~tid:0
          (Service.Codec.Get !submitted)
          (function
            | Service.Codec.Shed -> Atomic.incr sheds
            | _ -> Atomic.incr done_);
        Unix.sleepf 0.001
      done;
      Alcotest.(check bool) "observed a shed reply" true (Atomic.get sheds > 0);
      Alcotest.(check bool)
        "service counted the sheds" true
        (svc.Service.Shard.sheds () > 0);
      svc.Service.Shard.set_stalled ~shard:0 false;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while
        Atomic.get done_ + Atomic.get sheds < !submitted
        && Unix.gettimeofday () < deadline
      do
        Unix.sleepf 0.001
      done;
      Alcotest.(check int)
        "every submission answered exactly once" !submitted
        (Atomic.get done_ + Atomic.get sheds);
      (* Backlog cleared: the shard serves again. *)
      match Service.Shard.call svc ~tid:0 (Service.Codec.Get 1) with
      | Service.Codec.Value _ | Service.Codec.Not_found -> ()
      | r ->
          Alcotest.failf "unstalled shard answered %s"
            (Service.Codec.reply_to_string r))

let test_unix_socket () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "kvd-test-%d.sock" (Unix.getpid ()))
  in
  let svc = make_svc () in
  let server = Service.Conn.serve_unix svc ~path () in
  Fun.protect
    ~finally:(fun () ->
      Service.Conn.shutdown server;
      svc.Service.Shard.stop ())
    (fun () ->
      let fd = Service.Conn.connect_unix ~path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Alcotest.(check string)
            "put over socket" "CREATED"
            (Service.Codec.reply_to_string
               (Service.Conn.call_fd fd
                  (Service.Codec.Put { key = 5; value = 55 })));
          Alcotest.(check string)
            "get over socket" "VALUE 55"
            (Service.Codec.reply_to_string
               (Service.Conn.call_fd fd (Service.Codec.Get 5)))))

(* A client that vanishes mid-request-frame must cost nothing durable:
   the event loop sees EOF with half a length prefix buffered and
   drops that connection.  After 8 such disconnects a fresh connection
   must still get its own reply — not a Shed, a torn frame or
   silence. *)
let test_abrupt_disconnects_leave_loop_serving () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "kvd-churn-%d.sock" (Unix.getpid ()))
  in
  let svc = make_svc ~clients:2 () in
  let server = Service.Conn.serve_unix svc ~path () in
  Fun.protect
    ~finally:(fun () ->
      Service.Conn.shutdown server;
      svc.Service.Shard.stop ())
    (fun () ->
      for _ = 1 to 8 do
        let fd = Service.Conn.connect_unix ~path in
        (* Half a length prefix, then gone. *)
        (try ignore (Unix.write fd (Bytes.make 2 '\007') 0 2)
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      done;
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec attempt () =
        let fd = Service.Conn.connect_unix ~path in
        let r =
          try Some (Service.Conn.call_fd fd (Service.Codec.Get 3))
          with Service.Conn.Closed -> None
        in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        match r with
        | Some Service.Codec.Not_found -> ()
        | Some Service.Codec.Shed | None ->
            if Unix.gettimeofday () > deadline then
              Alcotest.fail
                "server never answered again after abrupt disconnects"
            else begin
              Unix.sleepf 0.02;
              attempt ()
            end
        | Some r ->
            Alcotest.failf "unexpected reply %s"
              (Service.Codec.reply_to_string r)
      in
      attempt ())

(* A reused frame buffer must be empty after write_frame on EVERY
   exit — clean return, a peer vanishing mid-write — or the next
   encode on it would prepend the stale bytes of the previous frame. *)
let test_write_frame_clears_buffer () =
  Service.Conn.ignore_sigpipe ();
  let buf = Buffer.create 64 in
  (* Clean write. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Buffer.add_string buf "\005\000\000\000hello";
  Service.Conn.write_frame a buf;
  Alcotest.(check int) "cleared after a clean write" 0 (Buffer.length buf);
  let tmp = Bytes.create 64 in
  Alcotest.(check int) "peer got the frame" 9 (Unix.read b tmp 0 64);
  (* Peer gone: the write raises, the buffer must still be clean. *)
  Unix.close b;
  Buffer.add_string buf (String.make (1 lsl 20) 'x');
  (match Service.Conn.write_frame a buf with
  | () -> Alcotest.fail "write to a closed peer should raise"
  | exception (Service.Conn.Closed | Unix.Unix_error _) -> ());
  Alcotest.(check int) "cleared when the write raises" 0 (Buffer.length buf);
  Unix.close a

(* ------------------------------------------------------------------ *)
(* The event loop: reply-trace identity with the in-process loopback,
   partial-frame reassembly, per-connection error containment, and
   high fan-in. *)

let tmp_sock tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "kvd-%s-%d.sock" tag (Unix.getpid ()))

(* A deterministic per-connection request stream over a private key
   range, so each connection's reply sequence is independent of
   cross-connection interleaving. *)
let conn_stream ~conn ~n =
  List.init n (fun i ->
      let key = (conn * 1000) + (i mod 7) in
      match i mod 4 with
      | 0 -> Service.Codec.Put { key; value = (conn * 100_000) + i }
      | 1 -> Service.Codec.Get key
      | 2 ->
          Service.Codec.Cas
            { key; expected = (conn * 100_000) + i - 2; desired = i }
      | _ -> Service.Codec.Del key)

(* Run [nconns] lockstep round-trip clients against the server at
   [path]; returns the reply payload trace (raw bytes) per conn. *)
let drive_conns ~path ~nconns ~n =
  let fds = Array.init nconns (fun _ -> Service.Conn.connect_unix ~path) in
  let traces = Array.make nconns [] in
  let out = Buffer.create 64 in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        fds)
    (fun () ->
      for i = 0 to n - 1 do
        Array.iteri
          (fun c fd ->
            Buffer.clear out;
            Service.Codec.encode_request out
              (List.nth (conn_stream ~conn:c ~n) i);
            Service.Conn.write_frame fd out)
          fds;
        Array.iteri
          (fun c fd ->
            match Service.Conn.read_frame fd with
            | Some payload -> traces.(c) <- payload :: traces.(c)
            | None -> Alcotest.failf "conn %d: eof at op %d" c i)
          fds
      done;
      Array.map List.rev traces)

let with_server ?backend ~tag ?(clients = 8) f =
  let path = tmp_sock tag in
  let svc = make_svc ~shards:2 ~clients () in
  let server = Service.Conn.serve_unix svc ~path ?backend () in
  Fun.protect
    ~finally:(fun () ->
      Service.Conn.shutdown server;
      svc.Service.Shard.stop ())
    (fun () -> f path)

let test_evloop_trace_identity () =
  (* A 24-connection seeded load over the event loop must produce, per
     connection, the byte-identical reply trace of the same stream run
     alone through the loopback on a fresh service.  Each connection
     has a private key range, so its trace does not depend on how the
     loop interleaves connections. *)
  let nconns = 24 and n = 16 in
  let evloop =
    with_server ~tag:"eve" ~clients:2 (fun path ->
        drive_conns ~path ~nconns ~n)
  in
  let out = Buffer.create 64 in
  let loopback conn =
    let svc = make_svc ~shards:2 ~clients:2 () in
    Fun.protect
      ~finally:(fun () -> svc.Service.Shard.stop ())
      (fun () ->
        let cl = Service.Conn.Loopback.connect svc ~tid:0 in
        List.map
          (fun req ->
            Buffer.clear out;
            Service.Codec.encode_reply out (Service.Conn.Loopback.call cl req);
            Buffer.sub out 4 (Buffer.length out - 4) |> Bytes.of_string)
          (conn_stream ~conn ~n))
  in
  Array.iteri
    (fun c e ->
      let t = loopback c in
      Alcotest.(check int)
        (Printf.sprintf "conn %d reply count" c)
        (List.length t) (List.length e);
      List.iteri
        (fun i (a, b) ->
          if not (Bytes.equal a b) then
            Alcotest.failf "conn %d op %d: loopback %s vs evloop %s" c i
              (Service.Codec.reply_to_string (Service.Codec.reply_of_payload a))
              (Service.Codec.reply_to_string (Service.Codec.reply_of_payload b)))
        (List.combine t e))
    evloop

let test_evloop_select_backend () =
  (* The portable select fallback behind the same interface. *)
  with_server ~backend:(`Evloop `Select) ~tag:"evs" ~clients:2 (fun path ->
      let fd = Service.Conn.connect_unix ~path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Alcotest.(check string)
            "put" "CREATED"
            (Service.Codec.reply_to_string
               (Service.Conn.call_fd fd
                  (Service.Codec.Put { key = 3; value = 33 })));
          Alcotest.(check string)
            "get" "VALUE 33"
            (Service.Codec.reply_to_string
               (Service.Conn.call_fd fd (Service.Codec.Get 3)))))

let test_evloop_drip_feed () =
  (* A slow client dribbling one byte at a time must be reassembled by
     the per-connection frame reader; a second frame split across
     writes likewise.  The loop must keep serving a fast client in
     parallel the whole time. *)
  with_server ~tag:"evd" ~clients:2 (fun path ->
      let slow = Service.Conn.connect_unix ~path in
      let fast = Service.Conn.connect_unix ~path in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close slow with Unix.Unix_error _ -> ());
          try Unix.close fast with Unix.Unix_error _ -> ())
        (fun () ->
          let buf = Buffer.create 32 in
          Service.Codec.encode_request buf
            (Service.Codec.Put { key = 9; value = 90 });
          let b = Buffer.to_bytes buf in
          Bytes.iteri
            (fun i _ ->
              ignore (Unix.write slow b i 1);
              (* The fast client round-trips between every dripped
                 byte: one stalled peer never blocks the loop. *)
              ignore (Service.Conn.call_fd fast (Service.Codec.Get 0)))
            b;
          (match Service.Conn.read_frame slow with
          | Some p ->
              Alcotest.(check string)
                "dripped put answered" "CREATED"
                (Service.Codec.reply_to_string
                   (Service.Codec.reply_of_payload p))
          | None -> Alcotest.fail "dripped put: eof");
          (* Two frames, split mid-header of the second. *)
          Buffer.clear buf;
          Service.Codec.encode_request buf (Service.Codec.Get 9);
          Service.Codec.encode_request buf (Service.Codec.Get 9);
          let b = Buffer.to_bytes buf in
          let cut = (Bytes.length b / 2) + 2 in
          ignore (Unix.write slow b 0 cut);
          Unix.sleepf 0.02;
          ignore (Unix.write slow b cut (Bytes.length b - cut));
          for _ = 1 to 2 do
            match Service.Conn.read_frame slow with
            | Some p ->
                Alcotest.(check string)
                  "split-frame get" "VALUE 90"
                  (Service.Codec.reply_to_string
                     (Service.Codec.reply_of_payload p))
            | None -> Alcotest.fail "split frame: eof"
          done))

let test_evloop_containment () =
  (* A connection sending an insane length prefix is dropped; its
     neighbour keeps being served by the same pump. *)
  with_server ~tag:"evb" ~clients:2 (fun path ->
      let bad = Service.Conn.connect_unix ~path in
      let good = Service.Conn.connect_unix ~path in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close bad with Unix.Unix_error _ -> ());
          try Unix.close good with Unix.Unix_error _ -> ())
        (fun () ->
          ignore
            (Service.Conn.call_fd good (Service.Codec.Put { key = 1; value = 2 }));
          let junk = Bytes.of_string "\xff\xff\xff\xff garbage" in
          ignore (Unix.write bad junk 0 (Bytes.length junk));
          (* The server closes [bad]; reading it hits EOF. *)
          Alcotest.(check bool)
            "bad conn closed" true
            (match Service.Conn.read_frame bad with
            | None -> true
            | Some _ -> false
            | exception (Service.Conn.Closed | Unix.Unix_error _) -> true);
          Alcotest.(check string)
            "good conn survives" "VALUE 2"
            (Service.Codec.reply_to_string
               (Service.Conn.call_fd good (Service.Codec.Get 1)))))

let test_evloop_pipelined_backpressure () =
  (* One connection pipelines far more than a socket buffer of
     requests while a separate domain consumes the replies: the
     server's short-write resume and output watermarks carry the
     backlog, and every reply arrives in request order. *)
  with_server ~tag:"evp" ~clients:2 (fun path ->
      let fd = Service.Conn.connect_unix ~path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let n = 20_000 in
          ignore
            (Service.Conn.call_fd fd (Service.Codec.Put { key = 1; value = 7 }));
          let reader =
            Domain.spawn (fun () ->
                let rd = Service.Conn.reader_of_fd fd in
                let ok = ref 0 in
                (try
                   for _ = 1 to n do
                     match Service.Conn.read_next rd with
                     | Some p -> (
                         match Service.Codec.reply_of_payload p with
                         | Service.Codec.Value 7 -> incr ok
                         | r ->
                             Alcotest.failf "unexpected reply %s"
                               (Service.Codec.reply_to_string r))
                     | None -> ()
                   done
                 with Service.Conn.Closed -> ());
                !ok)
          in
          let out = Buffer.create 64 in
          for _ = 1 to n do
            Service.Codec.encode_request out (Service.Codec.Get 1);
            Service.Conn.write_frame fd out
          done;
          let ok = Domain.join reader in
          Alcotest.(check int) "all pipelined replies arrived" n ok))

let test_evloop_fanin_512 () =
  (* ≥512 concurrent connections on one daemon, held by the single
     pump domain — far more than the runtime's domain cap — with every reply byte-checked against the expected encoding. *)
  let nconns = 512 and nops = 6 in
  with_server ~tag:"evf" ~clients:2 (fun path ->
      let fds = Array.init nconns (fun _ -> Service.Conn.connect_unix ~path) in
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
            fds)
        (fun () ->
          let ndrivers = 4 in
          let per = nconns / ndrivers in
          let driver d () =
            let lo = d * per and hi = ((d + 1) * per) - 1 in
            let out = Buffer.create 32 in
            let bad = ref 0 in
            for op = 0 to nops - 1 do
              for c = lo to hi do
                Buffer.clear out;
                Service.Codec.encode_request out
                  (match op mod 3 with
                  | 0 -> Service.Codec.Put { key = c; value = c }
                  | 1 -> Service.Codec.Get c
                  | _ -> Service.Codec.Del c);
                Service.Conn.write_frame fds.(c) out
              done;
              for c = lo to hi do
                match Service.Conn.read_frame fds.(c) with
                | Some payload ->
                    let got = Service.Codec.reply_of_payload payload in
                    let want =
                      (* put/del alternate, so every put sees a fresh key *)
                      match op mod 3 with
                      | 0 -> Service.Codec.Created
                      | 1 -> Service.Codec.Value c
                      | _ -> Service.Codec.Deleted
                    in
                    if got <> want then incr bad
                | None -> incr bad
              done
            done;
            !bad
          in
          let domains =
            List.init ndrivers (fun d -> Domain.spawn (driver d))
          in
          let bad = List.fold_left (fun a d -> a + Domain.join d) 0 domains in
          Alcotest.(check int) "512-conn fan-in: every reply exact" 0 bad))

let test_evloop_parked_request_recheck () =
  (* A request that passed the ext check at dispatch can park in the
     pump's backpressure queue while the verdict changes (a cluster
     freeze flipping slot ownership).  The loop must re-consult ext at
     submission: parked writes answer the NEW verdict — with the
     consumer parked and the mailbox full at [cap], exactly the first
     [cap] writes execute and every later one bounces. *)
  let redirect = Atomic.make false in
  let ext req =
    match req with
    | Service.Codec.Put _ when Atomic.get redirect ->
        Some (Service.Codec.Moved { slot = 0; node = 1 })
    | _ -> None
  in
  let path = tmp_sock "evr" in
  let cap = 4 in
  let svc = make_svc ~shards:1 ~clients:2 ~mailbox_capacity:cap () in
  let server = Service.Conn.serve_unix svc ~path ~ext () in
  Fun.protect
    ~finally:(fun () ->
      Service.Conn.shutdown server;
      svc.Service.Shard.stop ())
    (fun () ->
      let fd = Service.Conn.connect_unix ~path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          svc.Service.Shard.set_stalled ~shard:0 true;
          while not (svc.Service.Shard.is_parked 0) do
            Domain.cpu_relax ()
          done;
          let n = cap + 6 in
          let out = Buffer.create 32 in
          for k = 1 to n do
            Buffer.clear out;
            Service.Codec.encode_request out
              (Service.Codec.Put { key = k; value = k });
            Service.Conn.write_frame fd out
          done;
          (* The parked consumer guarantees an undrained mailbox, so
             depth reaching [cap] means the pump has dispatched the
             first [cap] writes into it; the overflow is parked (or
             still unread — either way, unsubmitted). *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          while
            svc.Service.Shard.shard_depth 0 < cap
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.001
          done;
          Alcotest.(check int)
            "mailbox full under the parked consumer" cap
            (svc.Service.Shard.shard_depth 0);
          Atomic.set redirect true;
          svc.Service.Shard.set_stalled ~shard:0 false;
          for k = 1 to n do
            match Service.Conn.read_frame fd with
            | None -> Alcotest.failf "eof at reply %d" k
            | Some p -> (
                let got = Service.Codec.reply_of_payload p in
                let want =
                  if k <= cap then Service.Codec.Created
                  else Service.Codec.Moved { slot = 0; node = 1 }
                in
                if got <> want then
                  Alcotest.failf "reply %d: got %s, want %s" k
                    (Service.Codec.reply_to_string got)
                    (Service.Codec.reply_to_string want))
          done))

let test_evloop_poison_ext () =
  (* An ext handler that raises costs the request an [Error] reply,
     never the pump — on both the inline path and the deferred
     worker. *)
  let ext req =
    match req with
    | Service.Codec.Cl_info | Service.Codec.Cl_release _ -> failwith "boom"
    | _ -> None
  in
  let defer = function Service.Codec.Cl_release _ -> true | _ -> false in
  let path = tmp_sock "evx" in
  let svc = make_svc ~shards:1 ~clients:2 () in
  let server =
    Service.Conn.serve_unix svc ~path ~ext ~ext_defer:defer ()
  in
  Fun.protect
    ~finally:(fun () ->
      Service.Conn.shutdown server;
      svc.Service.Shard.stop ())
    (fun () ->
      let fd = Service.Conn.connect_unix ~path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let is_error = function
            | Service.Codec.Error _ -> true
            | _ -> false
          in
          Alcotest.(check bool)
            "inline poison answered with Error" true
            (is_error (Service.Conn.call_fd fd Service.Codec.Cl_info));
          Alcotest.(check bool)
            "deferred poison answered with Error" true
            (is_error
               (Service.Conn.call_fd fd (Service.Codec.Cl_release { slot = 0 })));
          (* The pump survived both: the same connection still serves
             data, and so does a fresh one. *)
          Alcotest.(check string)
            "same conn serves data" "CREATED"
            (Service.Codec.reply_to_string
               (Service.Conn.call_fd fd
                  (Service.Codec.Put { key = 1; value = 1 })));
          let fd2 = Service.Conn.connect_unix ~path in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd2 with Unix.Unix_error _ -> ())
            (fun () ->
              Alcotest.(check string)
                "fresh conn served" "VALUE 1"
                (Service.Codec.reply_to_string
                   (Service.Conn.call_fd fd2 (Service.Codec.Get 1))))))

(* Both server transports run on one serving engine; the tests below
   take the transport as an input, so each case holds on both. *)
type transport = Unix_sock | Shm_ring

let transport_name = function Unix_sock -> "unix" | Shm_ring -> "shm"

(* Serve [svc] over [transport] for the duration of [f], which gets a
   [connect] returning a blocking call and its close. *)
let serve_over transport ~tag ?faults svc f =
  let path = tmp_sock (tag ^ "-" ^ transport_name transport) in
  match transport with
  | Unix_sock ->
      let server = Service.Conn.serve_unix svc ~path ?faults () in
      Fun.protect ~finally:(fun () -> Service.Conn.shutdown server)
      @@ fun () ->
      f (fun () ->
          let fd = Service.Conn.connect_unix ~path in
          ( Service.Conn.call_fd fd,
            fun () -> try Unix.close fd with Unix.Unix_error _ -> () ))
  | Shm_ring ->
      let server = Service.Shm_conn.serve svc ~path ?faults () in
      Fun.protect ~finally:(fun () -> Service.Shm_conn.shutdown server)
      @@ fun () ->
      f (fun () ->
          let c = Service.Shm_conn.connect ~path in
          (Service.Shm_conn.call c, fun () -> Service.Shm_conn.close c))

let with_conn connect f =
  let call, close = connect () in
  Fun.protect ~finally:close (fun () -> f call)

(* The engine's inline GETs (Shard.read_inline on the serving domain). *)
let with_inline_server transport ~tag ~zc_readers f =
  let svc = make_svc ~zc_readers () in
  Fun.protect ~finally:(fun () -> svc.Service.Shard.stop ()) @@ fun () ->
  serve_over transport ~tag svc @@ fun connect -> with_conn connect (f svc)

let reply_str call req = Service.Codec.reply_to_string (call req)

let test_evloop_inline_get_after_own_put () =
  (* [PUT k; GET k] in one write: both frames are parsed in one pass,
     so the GET is dispatched while the PUT sits in a mailbox.  It
     must not be answered inline from a map the PUT has not reached. *)
  let path = tmp_sock "evi" in
  let svc = make_svc ~zc_readers:1 () in
  let server = Service.Conn.serve_unix svc ~path () in
  let fd = Service.Conn.connect_unix ~path in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Service.Conn.shutdown server;
      svc.Service.Shard.stop ())
  @@ fun () ->
  let out = Buffer.create 64 in
  for k = 1 to 200 do
    Service.Codec.encode_request out (Service.Codec.Put { key = k; value = 1 });
    Service.Codec.encode_request out (Service.Codec.Get k);
    Service.Conn.write_frame fd out;
    List.iter
      (fun want ->
        match Service.Conn.read_frame fd with
        | None -> Alcotest.failf "key %d: eof" k
        | Some p ->
            Alcotest.(check string)
              (Printf.sprintf "key %d" k)
              want
              (Service.Codec.reply_to_string (Service.Codec.reply_of_payload p)))
      [ "CREATED"; "VALUE 1" ]
  done;
  (* A GET with nothing outstanding is answered inline. *)
  let inline0 = Atomic.get svc.Service.Shard.inline_gets in
  Alcotest.(check string) "lone get" "VALUE 1"
    (reply_str (Service.Conn.call_fd fd) (Service.Codec.Get 7));
  Alcotest.(check int) "answered inline" (inline0 + 1)
    (Atomic.get svc.Service.Shard.inline_gets);
  Alcotest.(check int) "exported as a gauge" (inline0 + 1)
    (List.assoc "kv_inline_gets" (svc.Service.Shard.gauges ()))

let test_inline_get_respects_admit transport () =
  (* Ownership is judged only by the consumer's admission filter, so
     a service with one installed answers no GET inline. *)
  with_inline_server transport ~tag:"eva" ~zc_readers:1 @@ fun svc call ->
  Alcotest.(check string) "put" "CREATED"
    (reply_str call (Service.Codec.Put { key = 5; value = 55 }));
  Alcotest.(check string) "get before the filter" "VALUE 55"
    (reply_str call (Service.Codec.Get 5));
  let moved = Service.Codec.Moved { slot = 3; node = 1 } in
  svc.Service.Shard.set_admit (fun ~tid:_ req ->
      if Service.Codec.key_of_request req = 5 then Some moved else None);
  Alcotest.(check string) "get after the filter"
    (Service.Codec.reply_to_string moved)
    (reply_str call (Service.Codec.Get 5));
  Alcotest.(check string) "other keys still served" "NOT_FOUND"
    (reply_str call (Service.Codec.Get 6))

let test_no_slot_routes_every_get transport () =
  with_inline_server transport ~tag:"evn" ~zc_readers:0 @@ fun svc call ->
  Alcotest.(check string) "put" "CREATED"
    (reply_str call (Service.Codec.Put { key = 9; value = 90 }));
  for _ = 1 to 10 do
    Alcotest.(check string) "get" "VALUE 90" (reply_str call (Service.Codec.Get 9))
  done;
  Alcotest.(check int) "every request executed by a consumer" 11
    (svc.Service.Shard.processed ());
  Alcotest.(check int) "no inline read attempted" 0
    (Atomic.get svc.Service.Shard.inline_gets
    + Atomic.get svc.Service.Shard.inline_declined)

let test_full_mailbox_holds transport () =
  (* Every producer shares a shard's mailbox, so a full one under a
     healthy consumer is not an overload signal: the engine holds the
     requests it refuses and retries them, on either medium. *)
  let svc = make_svc ~shards:1 ~clients:8 ~mailbox_capacity:2 () in
  Fun.protect ~finally:(fun () -> svc.Service.Shard.stop ()) @@ fun () ->
  serve_over transport ~tag:"hold" svc @@ fun connect ->
  svc.Service.Shard.set_stalled ~shard:0 true;
  while not (svc.Service.Shard.is_parked 0) do
    Domain.cpu_relax ()
  done;
  let clients =
    List.init 5 (fun key ->
        Domain.spawn (fun () ->
            with_conn connect (fun call ->
                reply_str call (Service.Codec.Put { key; value = key }))))
  in
  Unix.sleepf 0.3;
  svc.Service.Shard.set_stalled ~shard:0 false;
  Alcotest.(check (list string))
    "every put held, then created" (List.init 5 (fun _ -> "CREATED"))
    (List.map Domain.join clients)

let test_delayed_read_isolated transport () =
  (* A delayed read holds back only its own connection: the serving
     domain keeps answering every other one. *)
  let svc = make_svc () in
  let faults = Service.Conn.Faults.create ~delay_s:0.3 () in
  Fun.protect ~finally:(fun () -> svc.Service.Shard.stop ()) @@ fun () ->
  serve_over transport ~tag:"delay" ~faults svc @@ fun connect ->
  with_conn connect @@ fun call_a ->
  with_conn connect @@ fun call_b ->
  Alcotest.(check string) "warm a" "CREATED"
    (reply_str call_a (Service.Codec.Put { key = 1; value = 1 }));
  Alcotest.(check string) "warm b" "VALUE 1" (reply_str call_b (Service.Codec.Get 1));
  Service.Conn.Faults.arm_delayed_read faults 1;
  let a = Domain.spawn (fun () -> reply_str call_a (Service.Codec.Get 1)) in
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  let b = reply_str call_b (Service.Codec.Get 1) in
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "a answered after its delay" "VALUE 1" (Domain.join a);
  Alcotest.(check string) "b answered" "VALUE 1" b;
  if waited >= 0.1 then
    Alcotest.failf "b waited %.3f s behind a's delayed read" waited

(* One test case per transport. *)
let on_both name speed test =
  List.map
    (fun t ->
      Alcotest.test_case
        (Printf.sprintf "%s (%s)" name (transport_name t))
        speed (test t))
    [ Unix_sock; Shm_ring ]

(* ------------------------------------------------------------------ *)
(* Loadgen determinism and the Zipf table cache *)

let test_loadgen_determinism () =
  let dist = Workload.Keydist.zipf ~theta:0.9 ~range:1000 () in
  let mix = Service.Loadgen.read_mostly in
  let stream tid =
    Service.Loadgen.request_stream ~seed:99 ~tid ~dist ~mix ~n:200
  in
  Alcotest.(check bool)
    "same (seed, tid) reproduces the stream" true
    (stream 0 = stream 0);
  Alcotest.(check bool) "different tids differ" true (stream 0 <> stream 1);
  let other =
    Service.Loadgen.request_stream ~seed:100 ~tid:0 ~dist ~mix ~n:200
  in
  Alcotest.(check bool) "different seeds differ" true (stream 0 <> other)

let test_zipf_cache () =
  let before = Workload.Keydist.zipf_cache_builds () in
  let d1 = Workload.Keydist.zipf ~theta:0.77 ~range:4321 () in
  let after_first = Workload.Keydist.zipf_cache_builds () in
  Alcotest.(check int) "first build" (before + 1) after_first;
  let d2 = Workload.Keydist.zipf ~theta:0.77 ~range:4321 () in
  Alcotest.(check int)
    "identical params hit the cache" after_first
    (Workload.Keydist.zipf_cache_builds ());
  ignore (Workload.Keydist.zipf ~theta:0.78 ~range:4321 ());
  Alcotest.(check int)
    "new theta builds" (after_first + 1)
    (Workload.Keydist.zipf_cache_builds ());
  (* Cached and fresh tables draw identically. *)
  let r1 = Prims.Rng.create ~seed:5 and r2 = Prims.Rng.create ~seed:5 in
  for _ = 1 to 100 do
    Alcotest.(check int)
      "same draws" (Workload.Keydist.draw d1 r1)
      (Workload.Keydist.draw d2 r2)
  done

let test_scheme_aliases () =
  Alcotest.(check string)
    "ebr aliases Epoch" "Epoch"
    (Workload.Registry.find_scheme "ebr").Workload.Registry.s_name;
  Alcotest.(check string)
    "hyaline1s normalizes" "Hyaline-1S"
    (Workload.Registry.find_scheme "hyaline1s").Workload.Registry.s_name

let test_slo () =
  let slo =
    Service.Slo.create
      ~objectives:[ { Service.Slo.quantile = 0.99; limit_ns = 1_000_000 } ]
      ()
  in
  for _ = 1 to 1000 do
    Service.Slo.record slo ~ns:1000
  done;
  Alcotest.(check bool) "meets objective" false (Service.Slo.violated slo);
  Alcotest.(check bool)
    "p50 bound is conservative" true
    (Service.Slo.p50 slo >= 1000);
  (* 30 outliers: comfortably past both the 99th and 99.9th ranks. *)
  for _ = 1 to 30 do
    Service.Slo.record slo ~ns:50_000_000
  done;
  Alcotest.(check bool)
    "p99.9 sees the outliers" true
    (Service.Slo.p999 slo >= 10_000_000);
  Alcotest.(check bool) "objective now violated" true (Service.Slo.violated slo)

(* ------------------------------------------------------------------ *)
(* Idle consumers park: counts, not wall-clock rates *)

(* Run [f] on its own domain and fail if it has not returned within
   [s] seconds, so a lost wakeup fails the test instead of hanging
   the suite. *)
let within ~what s f =
  let res = Atomic.make None in
  let d = Domain.spawn (fun () -> Atomic.set res (Some (f ()))) in
  let deadline = Unix.gettimeofday () +. s in
  while Atomic.get res = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  match Atomic.get res with
  | Some v ->
      Domain.join d;
      v
  | None -> Alcotest.failf "%s did not complete within %.0f s" what s

let heartbeats svc = Array.init svc.Service.Shard.nshards svc.Service.Shard.heartbeat

(* Wait until no heartbeat moves across a 20 ms window: every
   consumer has found its mailbox empty and blocked on its bell. *)
let settled svc =
  let deadline = Unix.gettimeofday () +. 3.0 in
  let rec go () =
    let before = heartbeats svc in
    Unix.sleepf 0.02;
    if heartbeats svc = before then true
    else if Unix.gettimeofday () > deadline then false
    else go ()
  in
  go ()

(* An idle consumer parks instead of polling, so its heartbeat stays
   frozen: over 50 polls 2 ms apart not one heartbeat moves.  A
   consumer that sleeps in fixed quanta bumps it every quantum. *)
let test_idle_heartbeat_frozen () =
  let svc = make_svc () in
  Fun.protect
    ~finally:(fun () -> svc.Service.Shard.stop ())
    (fun () ->
      for k = 0 to 7 do
        ignore
          (Service.Shard.call svc ~tid:0
             (Service.Codec.Put { key = k; value = k }))
      done;
      Alcotest.(check bool) "consumers settle" true (settled svc);
      let base = heartbeats svc in
      let moved = ref 0 in
      for _ = 1 to 50 do
        Unix.sleepf 0.002;
        if heartbeats svc <> base then incr moved
      done;
      Alcotest.(check int) "polls that saw a heartbeat move" 0 !moved)

(* Every control operation must reach a consumer blocked on its bell:
   a call, a stall and unstall, a crash, and stop. *)
let test_parked_service_controls () =
  let svc = make_svc () in
  let key_on shard =
    let rec go k = if svc.Service.Shard.shard_of_key k = shard then k else go (k + 1) in
    go 0
  in
  Fun.protect ~finally:(fun () -> svc.Service.Shard.stop ()) @@ fun () ->
  Alcotest.(check bool) "consumers settle" true (settled svc);
  (match
     within ~what:"call" 10.0 (fun () ->
         Service.Shard.call svc ~tid:0 (Service.Codec.Put { key = 1; value = 1 }))
   with
  | Service.Codec.Created -> ()
  | r -> Alcotest.failf "call answered %s" (Service.Codec.reply_to_string r));
  Alcotest.(check bool) "settle again" true (settled svc);
  within ~what:"set_stalled true" 10.0 (fun () ->
      svc.Service.Shard.set_stalled ~shard:0 true;
      while not (svc.Service.Shard.is_parked 0) do
        Domain.cpu_relax ()
      done);
  (* Mailed while stalled: answered only after the unstall wakes it. *)
  let answered = Atomic.make false in
  svc.Service.Shard.submit ~tid:0
    (Service.Codec.Get (key_on 0))
    (fun _ -> Atomic.set answered true);
  Alcotest.(check bool) "stalled consumer holds its mailbox" false
    (Atomic.get answered);
  within ~what:"set_stalled false" 10.0 (fun () ->
      svc.Service.Shard.set_stalled ~shard:0 false;
      while not (Atomic.get answered) do
        Domain.cpu_relax ()
      done);
  Alcotest.(check bool) "settle before crash" true (settled svc);
  within ~what:"crash" 10.0 (fun () -> svc.Service.Shard.crash ~shard:1);
  Alcotest.(check bool) "crashed" false (svc.Service.Shard.consumer_alive 1);
  within ~what:"stop" 10.0 (fun () -> svc.Service.Shard.stop ())

(* The reaper and the failover monitor must not mistake a parked idle
   consumer for a dead one: its heartbeat is frozen, but its domain is
   alive, so [threshold] polls (and more) confirm nothing. *)
let test_idle_not_confirmed_dead () =
  let svc = make_svc () in
  Fun.protect
    ~finally:(fun () -> svc.Service.Shard.stop ())
    (fun () ->
      Alcotest.(check bool) "consumers settle" true (settled svc);
      let base = heartbeats svc in
      let threshold = 3 in
      let reaper = Chaos.Reaper.create ~svc ~threshold in
      let alive () =
        List.for_all svc.Service.Shard.consumer_alive
          (List.init svc.Service.Shard.nshards Fun.id)
      in
      let mon =
        Replica.Failover.monitor ~alive ~heartbeat:svc.Service.Shard.heartbeat
          ~nshards:svc.Service.Shard.nshards ~threshold ()
      in
      let confirmed = ref 0 in
      for _ = 1 to 2 * threshold do
        Unix.sleepf 0.002;
        confirmed := !confirmed + List.length (Chaos.Reaper.poll reaper);
        if Replica.Failover.poll mon then incr confirmed
      done;
      Alcotest.(check bool) "heartbeats frozen throughout" true
        (heartbeats svc = base);
      Alcotest.(check int) "deaths confirmed" 0 !confirmed;
      Alcotest.(check bool) "failover unconfirmed" false
        (Replica.Failover.confirmed mon))

let suites =
  [
    ( "service.codec",
      [
        Alcotest.test_case "request round-trips" `Quick test_codec_requests;
        Alcotest.test_case "reply round-trips" `Quick test_codec_replies;
        Alcotest.test_case "malformed payloads" `Quick test_codec_malformed;
      ] );
    ( "service.mailbox",
      [ Alcotest.test_case "bounds and FIFO" `Quick test_mailbox_bounds ] );
    ( "service.shard",
      [
        Alcotest.test_case "loopback opcodes" `Quick test_loopback_opcodes;
        Alcotest.test_case "shed at capacity" `Quick test_shed_at_capacity;
        Alcotest.test_case "pipeline keeps per-shard order under sheds" `Quick
          test_pipeline_order_under_sheds;
        Alcotest.test_case "unix socket round-trip" `Quick test_unix_socket;
        Alcotest.test_case "abrupt disconnects never wedge the event loop"
          `Quick
          test_abrupt_disconnects_leave_loop_serving;
        Alcotest.test_case "reply buffer cleared on every write exit" `Quick
          test_write_frame_clears_buffer;
      ] );
    ( "service.parker",
      [
        Alcotest.test_case "idle heartbeat stays frozen" `Quick
          test_idle_heartbeat_frozen;
        Alcotest.test_case "controls reach a parked consumer" `Quick
          test_parked_service_controls;
        Alcotest.test_case "idle consumer never confirmed dead" `Quick
          test_idle_not_confirmed_dead;
      ] );
    ( "service.evloop",
      [
        Alcotest.test_case "select backend round-trip" `Quick
          test_evloop_select_backend;
        Alcotest.test_case "reply-trace identity vs loopback" `Quick
          test_evloop_trace_identity;
        Alcotest.test_case "drip-feed partial frames" `Quick
          test_evloop_drip_feed;
        Alcotest.test_case "per-connection error containment" `Quick
          test_evloop_containment;
        Alcotest.test_case "pipelined backlog under backpressure" `Quick
          test_evloop_pipelined_backpressure;
        Alcotest.test_case "512-connection fan-in" `Quick test_evloop_fanin_512;
        Alcotest.test_case "parked requests re-check ext at submission"
          `Quick test_evloop_parked_request_recheck;
        Alcotest.test_case "raising ext poisons the request, not the pump"
          `Quick test_evloop_poison_ext;
        Alcotest.test_case "a GET behind its own PUT is not inline" `Quick
          test_evloop_inline_get_after_own_put;
      ]
      @ on_both "an admission filter turns inline GETs off" `Quick
          test_inline_get_respects_admit
      @ on_both "no zero-copy slot routes every GET" `Quick
          test_no_slot_routes_every_get
      @ on_both "a full mailbox holds, never sheds" `Quick
          test_full_mailbox_holds
      @ on_both "a delayed read delays only its connection" `Quick
          test_delayed_read_isolated );
    ( "service.loadgen",
      [
        Alcotest.test_case "fixed-seed determinism" `Quick
          test_loadgen_determinism;
        Alcotest.test_case "zipf table cache" `Quick test_zipf_cache;
        Alcotest.test_case "scheme aliases" `Quick test_scheme_aliases;
        Alcotest.test_case "slo percentiles" `Quick test_slo;
      ] );
  ]
