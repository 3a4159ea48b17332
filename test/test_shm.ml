(* lib/shm and the shared-memory transport: ring wrap/torn-write
   property tests, segment lifecycle (generation-stamped attach),
   doorbell wakeups, the end-to-end Shm_conn transport against a live
   service, Conn.Faults parity over rings, and bracket-protected
   zero-copy GETs including the registry-wide stalled-reader gate. *)

module Codec = Service.Codec

let tmp_name =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "shmtest-%d-%d-%s" (Unix.getpid ()) !counter tag)

(* ------------------------------------------------------------------ *)
(* Ring over plain (non-mmap'd) bigarrays. *)

let mk_ring ?(cap = 64) () =
  let ctrl =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout 16
  in
  let data =
    Bigarray.Array1.create Bigarray.char Bigarray.c_layout cap
  in
  Shm.Ring.init ~ctrl ~head_cell:0 ~tail_cell:8;
  Shm.Ring.create ~ctrl ~head_cell:0 ~tail_cell:8 ~data ~off:0 ~cap

(* A wire-shaped message: 4-byte BE length prefix + payload. *)
let frame_of_payload payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  b

let read_full (src : Codec.source) b pos len =
  let rec go pos remaining got =
    if remaining = 0 then got
    else
      let n = src b pos remaining in
      if n = 0 then got else go (pos + n) (remaining - n) (got + n)
  in
  go pos len 0

let read_msg ring =
  match Shm.Ring.pending ring with
  | `Empty -> None
  | `Torn m -> failwith ("unexpected torn: " ^ m)
  | `Msg plen ->
      let b = Bytes.create (4 + plen) in
      let got = read_full (Shm.Ring.source ring) b 0 (4 + plen) in
      Alcotest.(check int) "message bytes delivered" (4 + plen) got;
      Shm.Ring.finish_msg ring;
      Some (Bytes.sub_string b 4 plen)

let test_ring_roundtrip () =
  let ring = mk_ring ~cap:256 () in
  let send payload =
    let b = frame_of_payload payload in
    Alcotest.(check bool) "send accepted" true
      (Shm.Ring.try_send ring b ~pos:0 ~len:(Bytes.length b))
  in
  send "hello";
  send "";
  send "worlds";
  Alcotest.(check (option string)) "first" (Some "hello") (read_msg ring);
  Alcotest.(check (option string)) "second" (Some "") (read_msg ring);
  Alcotest.(check (option string)) "third" (Some "worlds") (read_msg ring);
  Alcotest.(check (option string)) "drained" None (read_msg ring)

(* The wrap property: random payload sizes through a tiny ring hit
   every split point — inside the length prefix, inside the payload,
   inside the stamp — because cumulative message lengths sweep all
   residues mod capacity. *)
let test_ring_wrap_property () =
  let cap = 64 in
  let ring = mk_ring ~cap () in
  let rng = Prims.Rng.create ~seed:4242 in
  let mk i len =
    String.init len (fun j -> Char.chr ((i + (7 * j)) land 0xff))
  in
  for i = 0 to 4999 do
    let len = Prims.Rng.below rng (Shm.Ring.max_payload ring + 1) in
    let payload = mk i len in
    let b = frame_of_payload payload in
    Alcotest.(check bool)
      (Printf.sprintf "send %d (len %d) into empty ring" i len)
      true
      (Shm.Ring.try_send ring b ~pos:0 ~len:(Bytes.length b));
    match read_msg ring with
    | Some got ->
        if got <> payload then
          Alcotest.failf "message %d (len %d) corrupted across wrap" i len
    | None -> Alcotest.failf "message %d vanished" i
  done;
  Alcotest.(check bool) "ring never broke" false (Shm.Ring.is_broken ring)

(* Several queued messages at arbitrary wrap phases. *)
let test_ring_queued_wrap () =
  let cap = 128 in
  let ring = mk_ring ~cap () in
  let rng = Prims.Rng.create ~seed:99 in
  let q = Queue.create () in
  for i = 0 to 1999 do
    (* Randomly interleave sends and receives. *)
    if Prims.Rng.below rng 2 = 0 then begin
      let len = Prims.Rng.below rng 24 in
      let payload = String.init len (fun j -> Char.chr ((i + j) land 0xff)) in
      let b = frame_of_payload payload in
      if Shm.Ring.try_send ring b ~pos:0 ~len:(Bytes.length b) then
        Queue.push payload q
    end
    else
      match read_msg ring with
      | Some got ->
          let expect = Queue.pop q in
          if got <> expect then Alcotest.failf "FIFO order broken at %d" i
      | None -> Alcotest.(check int) "empty means none queued" 0 (Queue.length q)
  done;
  (* Drain the rest. *)
  let rec drain () =
    match read_msg ring with
    | Some got ->
        let expect = Queue.pop q in
        Alcotest.(check string) "tail drain" expect got;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all delivered" 0 (Queue.length q)

let test_ring_full_then_drain () =
  let ring = mk_ring ~cap:64 () in
  let b = frame_of_payload (String.make 20 'x') in
  let sent = ref 0 in
  while Shm.Ring.try_send ring b ~pos:0 ~len:(Bytes.length b) do incr sent done;
  Alcotest.(check bool) "filled after a few sends" true (!sent >= 2);
  Alcotest.(check bool) "full ring refuses" false
    (Shm.Ring.try_send ring b ~pos:0 ~len:(Bytes.length b));
  (match read_msg ring with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a message");
  Alcotest.(check bool) "space after drain" true
    (Shm.Ring.try_send ring b ~pos:0 ~len:(Bytes.length b))

let test_ring_torn_stamp () =
  let ring = mk_ring ~cap:128 () in
  let b = frame_of_payload "healthy" in
  Alcotest.(check bool) "ok send" true
    (Shm.Ring.try_send ring b ~pos:0 ~len:(Bytes.length b));
  (match read_msg ring with Some _ -> () | None -> Alcotest.fail "msg");
  Shm.Ring.arm_torn_stamp ring 1;
  Alcotest.(check bool) "damaged send is published" true
    (Shm.Ring.try_send ring b ~pos:0 ~len:(Bytes.length b));
  (match Shm.Ring.pending ring with
  | `Torn _ -> ()
  | `Empty | `Msg _ -> Alcotest.fail "torn stamp not reported");
  (* Sticky: the ring stays broken. *)
  (match Shm.Ring.pending ring with
  | `Torn _ -> ()
  | _ -> Alcotest.fail "torn not sticky");
  Alcotest.(check bool) "is_broken" true (Shm.Ring.is_broken ring)

let test_ring_truncated_write () =
  let ring = mk_ring ~cap:128 () in
  let b = frame_of_payload (String.make 40 'q') in
  Shm.Ring.arm_truncate ring 1;
  Alcotest.(check bool) "truncated send is published" true
    (Shm.Ring.try_send ring b ~pos:0 ~len:(Bytes.length b));
  match Shm.Ring.pending ring with
  | `Torn _ -> ()
  | `Empty | `Msg _ -> Alcotest.fail "mid-frame truncation not reported"

(* Torn injection at every wrap phase: advance the ring to a random
   position first, then damage — the stamp check must fire no matter
   where the frame (and its stamp) wrapped. *)
let test_ring_torn_at_wrap_phases () =
  let rng = Prims.Rng.create ~seed:7 in
  for trial = 0 to 199 do
    let ring = mk_ring ~cap:64 () in
    (* Advance by a random number of healthy messages. *)
    let advance = Prims.Rng.below rng 40 in
    for i = 0 to advance - 1 do
      let b = frame_of_payload (String.make (Prims.Rng.below rng 16) 'a') in
      if Shm.Ring.try_send ring b ~pos:0 ~len:(Bytes.length b) then
        match read_msg ring with
        | Some _ -> ()
        | None -> Alcotest.failf "trial %d: healthy msg %d lost" trial i
    done;
    let victim = frame_of_payload (String.make (Prims.Rng.below rng 30) 'v') in
    if Prims.Rng.below rng 2 = 0 then Shm.Ring.arm_torn_stamp ring 1
    else Shm.Ring.arm_truncate ring 1;
    if Shm.Ring.try_send ring victim ~pos:0 ~len:(Bytes.length victim) then
      match Shm.Ring.pending ring with
      | `Torn _ -> ()
      | `Empty | `Msg _ ->
          Alcotest.failf "trial %d: damage at this wrap phase not detected"
            trial
  done

let test_ring_rejects_malformed () =
  let ring = mk_ring ~cap:64 () in
  (* Embedded prefix disagreeing with len. *)
  let b = frame_of_payload "abc" in
  Bytes.set_int32_be b 0 9999l;
  Alcotest.check_raises "prefix mismatch"
    (Invalid_argument "Ring.try_send: embedded length prefix disagrees with len")
    (fun () -> ignore (Shm.Ring.try_send ring b ~pos:0 ~len:(Bytes.length b)));
  (* A message that can never fit. *)
  let big = frame_of_payload (String.make 70 'z') in
  Alcotest.check_raises "oversized"
    (Invalid_argument "Ring.try_send: message exceeds ring capacity")
    (fun () -> ignore (Shm.Ring.try_send ring big ~pos:0 ~len:(Bytes.length big)))

(* ------------------------------------------------------------------ *)
(* The shared frame decoder over a ring source: real Codec frames,
   including ones that wrap the boundary in two chunks. *)

let test_codec_over_ring () =
  let ring = mk_ring ~cap:64 () in
  let reader = Codec.frame_reader (Shm.Ring.source ring) in
  let buf = Buffer.create 64 in
  let reqs =
    [
      Codec.Get 42;
      Codec.Put { key = 1; value = max_int };
      Codec.Cas { key = 3; expected = -1; desired = min_int };
      Codec.Del 7;
      Codec.Get min_int;
      Codec.Rep_pull { shard = 1; from = 99; max = 10 };
    ]
  in
  (* Push them through one at a time so cumulative lengths move the
     wrap point; 25-byte CAS frames force two-chunk reads in a 64-byte
     ring after a few messages. *)
  List.iteri
    (fun i req ->
      Buffer.clear buf;
      Codec.encode_request buf req;
      let b = Buffer.to_bytes buf in
      Alcotest.(check bool)
        (Printf.sprintf "send %d" i)
        true
        (Shm.Ring.try_send ring b ~pos:0 ~len:(Bytes.length b));
      match Shm.Ring.pending ring with
      | `Msg _ -> (
          match Codec.next_frame reader with
          | Codec.Frame payload ->
              Shm.Ring.finish_msg ring;
              let got = Codec.request_of_payload payload in
              Alcotest.(check string)
                (Printf.sprintf "request %d round-trips the ring" i)
                (Codec.request_to_string req)
                (Codec.request_to_string got)
          | Codec.Eof | Codec.Torn _ -> Alcotest.fail "decoder lost the frame")
      | `Empty | `Torn _ -> Alcotest.fail "complete message not pending")
    reqs

(* ------------------------------------------------------------------ *)
(* Segment lifecycle. *)

let test_seg_create_attach () =
  let path = tmp_name "seg" in
  let seg = Shm.Seg.create ~path ~c2s_cap:1024 ~s2c_cap:2048 () in
  Fun.protect ~finally:(fun () ->
      Shm.Seg.detach seg;
      Shm.Seg.unlink seg)
  @@ fun () ->
  Alcotest.(check bool) "open after create" true (Shm.Seg.is_open seg);
  let att = Shm.Seg.attach ~path ~expect_gen:(Shm.Seg.generation seg) () in
  Alcotest.(check int)
    "same generation" (Shm.Seg.generation seg) (Shm.Seg.generation att);
  (* Bytes written by one mapping are visible through the other. *)
  let tx = Shm.Seg.c2s_ring seg in
  let rx = Shm.Seg.c2s_ring att in
  let b = frame_of_payload "cross-mapping" in
  Alcotest.(check bool) "send via creator mapping" true
    (Shm.Ring.try_send tx b ~pos:0 ~len:(Bytes.length b));
  (match Shm.Ring.pending rx with
  | `Msg n -> Alcotest.(check int) "length visible via attach" 13 n
  | `Empty | `Torn _ -> Alcotest.fail "message not visible across mappings");
  Shm.Seg.detach att

let test_seg_generation_mismatch () =
  let path = tmp_name "seg-gen" in
  let seg = Shm.Seg.create ~path () in
  Fun.protect ~finally:(fun () ->
      Shm.Seg.detach seg;
      Shm.Seg.unlink seg)
  @@ fun () ->
  match Shm.Seg.attach ~path ~expect_gen:(Shm.Seg.generation seg + 1) () with
  | _ -> Alcotest.fail "stale-generation attach must fail"
  | exception Shm.Seg.Bad_segment _ -> ()

let test_seg_closed_attach () =
  let path = tmp_name "seg-closed" in
  let seg = Shm.Seg.create ~path () in
  Fun.protect ~finally:(fun () ->
      Shm.Seg.detach seg;
      Shm.Seg.unlink seg)
  @@ fun () ->
  Shm.Seg.mark_closed seg;
  match Shm.Seg.attach ~path () with
  | _ -> Alcotest.fail "attach to a closed segment must fail"
  | exception Shm.Seg.Bad_segment _ -> ()

let test_seg_garbage_attach () =
  let path = tmp_name "seg-garbage" in
  let oc = open_out_bin path in
  output_string oc (String.make 8192 '\x5a');
  close_out oc;
  Fun.protect ~finally:(fun () -> Shm.Seg.unlink_path path)
  @@ fun () ->
  match Shm.Seg.attach ~path () with
  | _ -> Alcotest.fail "attach to garbage must fail"
  | exception Shm.Seg.Bad_segment _ -> ()

let test_seg_unlink_sweeps_files () =
  let path = tmp_name "seg-sweep" in
  let seg = Shm.Seg.create ~path () in
  Alcotest.(check bool) "seg file exists" true (Sys.file_exists path);
  Alcotest.(check bool) "cli bell exists" true
    (Sys.file_exists (Shm.Seg.cli_bell seg));
  Alcotest.(check bool) "srv bell exists" true
    (Sys.file_exists (Shm.Seg.srv_bell seg));
  Shm.Seg.mark_closed seg;
  Shm.Seg.detach seg;
  Shm.Seg.unlink seg;
  Alcotest.(check bool) "seg file gone" false (Sys.file_exists path);
  Alcotest.(check bool) "cli bell gone" false
    (Sys.file_exists (Shm.Seg.cli_bell seg));
  Alcotest.(check bool) "srv bell gone" false
    (Sys.file_exists (Shm.Seg.srv_bell seg))

(* ------------------------------------------------------------------ *)
(* Doorbell. *)

(* Counts [ready] calls up to the first [announce true].  [ready]
   turns true on call [true_at] (never, if 0); the select timeout is
   1 ms, so a waiter that does sleep returns at once. *)
let doorbell_polls ~spin ~true_at =
  let path = tmp_name "bell-polls" in
  let bell = Shm.Doorbell.create ~path in
  Fun.protect ~finally:(fun () ->
      Shm.Doorbell.close bell;
      Shm.Doorbell.unlink bell)
  @@ fun () ->
  let calls = ref 0 and at_announce = ref None in
  Shm.Doorbell.wait bell ~spin ~timeout_s:0.001
    ~announce:(fun b ->
      if b && !at_announce = None then at_announce := Some !calls)
    ~ready:(fun () ->
      incr calls;
      !calls = true_at);
  !at_announce

let test_doorbell_ready_fast_path () =
  (* ready immediately: wait must return without ever announcing. *)
  match doorbell_polls ~spin:Shm.Doorbell.default_spin ~true_at:1 with
  | None -> ()
  | Some _ -> Alcotest.fail "flag traffic on the fast path"

(* The predicate is polled on every relax, not between backoff rounds:
   a reply that lands on the 100th poll, well inside [~spin:4]'s 480
   relaxes, is seen without the waiter ever announcing a sleep. *)
let test_doorbell_polls_every_relax () =
  match doorbell_polls ~spin:4 ~true_at:100 with
  | None -> ()
  | Some n -> Alcotest.failf "announced after %d polls, ready on the 100th" n

(* The spin budget is [spin] rounds of the 32..1024 doubling schedule,
   in relaxes: 480 at [~spin:4] (the shipped client's budget on a
   small host), 32+64+128+256+512+5*1024 = 6112 at [~spin:10].  Up to
   three more polls are allowed (entry, loop exit, re-check). *)
let test_doorbell_spin_budget () =
  List.iter
    (fun (spin, budget) ->
      match doorbell_polls ~spin ~true_at:0 with
      | None -> Alcotest.failf "~spin:%d never announced" spin
      | Some n ->
          if n < budget || n > budget + 3 then
            Alcotest.failf
              "~spin:%d polled %d times before announcing, not %d-%d" spin n
              budget (budget + 3))
    [ (4, 480); (10, 6112) ]

let test_doorbell_wakes_sleeper () =
  let path = tmp_name "bell-wake" in
  let bell = Shm.Doorbell.create ~path in
  Fun.protect ~finally:(fun () ->
      Shm.Doorbell.close bell;
      Shm.Doorbell.unlink bell)
  @@ fun () ->
  let flag = Atomic.make false in
  let ready = Atomic.make false in
  let waiter =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. 5.0 in
        while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
          Shm.Doorbell.wait bell ~spin:10
            ~announce:(fun b -> Atomic.set flag b)
            ~ready:(fun () -> Atomic.get ready)
        done;
        Atomic.get ready)
  in
  let ringer = Shm.Doorbell.attach ~path in
  (* Publish, then ring (unconditionally here; the flag race is the
     waiter's select timeout's problem, bounded at 50ms). *)
  Unix.sleepf 0.02;
  Atomic.set ready true;
  Shm.Doorbell.ring ringer;
  let woke = Domain.join waiter in
  Shm.Doorbell.close ringer;
  Alcotest.(check bool) "sleeper observed readiness" true woke

(* ------------------------------------------------------------------ *)
(* End-to-end transport against a live service. *)

let make_svc ?(shards = 2) ?(clients = 2) ?(zc_readers = 0)
    ?(scheme = "hyaline") () =
  Service.Shard.create
    ~structure:(Workload.Registry.find_structure "hashmap")
    ~scheme:(Workload.Registry.find_scheme scheme)
    {
      Service.Shard.default_config with
      Service.Shard.shards;
      clients;
      mailbox_capacity = 64;
      zc_readers;
    }

let with_server ?faults ?(clients = 2) f =
  let svc = make_svc ~clients () in
  let path = tmp_name "kvd-listen" in
  let srv = Service.Shm_conn.serve svc ~path ?faults () in
  Fun.protect ~finally:(fun () ->
      Service.Shm_conn.shutdown srv;
      svc.Service.Shard.stop ())
  @@ fun () -> f ~path ~svc ~srv

let test_shm_conn_opcodes () =
  with_server @@ fun ~path ~svc:_ ~srv:_ ->
  let c = Service.Shm_conn.connect ~path in
  Fun.protect ~finally:(fun () -> Service.Shm_conn.close c)
  @@ fun () ->
  let check name expected req =
    Alcotest.(check string)
      name
      (Codec.reply_to_string expected)
      (Codec.reply_to_string (Service.Shm_conn.call c req))
  in
  check "get missing" Codec.Not_found (Codec.Get 1);
  check "put" Codec.Created (Codec.Put { key = 1; value = 10 });
  check "get" (Codec.Value 10) (Codec.Get 1);
  check "put update" Codec.Updated (Codec.Put { key = 1; value = 11 });
  check "cas ok" Codec.Cas_ok (Codec.Cas { key = 1; expected = 11; desired = 12 });
  check "cas fail" Codec.Cas_fail
    (Codec.Cas { key = 1; expected = 11; desired = 13 });
  check "del" Codec.Deleted (Codec.Del 1);
  check "get after del" Codec.Not_found (Codec.Get 1)

let test_shm_conn_many_requests () =
  with_server @@ fun ~path ~svc:_ ~srv:_ ->
  let c = Service.Shm_conn.connect ~path in
  Fun.protect ~finally:(fun () -> Service.Shm_conn.close c)
  @@ fun () ->
  for i = 0 to 499 do
    match Service.Shm_conn.call c (Codec.Put { key = i; value = i * 3 }) with
    | Codec.Created -> ()
    | r -> Alcotest.failf "put %d: %s" i (Codec.reply_to_string r)
  done;
  for i = 0 to 499 do
    match Service.Shm_conn.call c (Codec.Get i) with
    | Codec.Value v when v = i * 3 -> ()
    | r -> Alcotest.failf "get %d: %s" i (Codec.reply_to_string r)
  done

let test_shm_conn_two_clients () =
  with_server @@ fun ~path ~svc:_ ~srv:_ ->
  let c1 = Service.Shm_conn.connect ~path in
  let c2 = Service.Shm_conn.connect ~path in
  Fun.protect ~finally:(fun () ->
      Service.Shm_conn.close c1;
      Service.Shm_conn.close c2)
  @@ fun () ->
  (match Service.Shm_conn.call c1 (Codec.Put { key = 5; value = 55 }) with
  | Codec.Created -> ()
  | r -> Alcotest.failf "c1 put: %s" (Codec.reply_to_string r));
  match Service.Shm_conn.call c2 (Codec.Get 5) with
  | Codec.Value 55 -> ()
  | r -> Alcotest.failf "c2 get: %s" (Codec.reply_to_string r)

let test_shm_conn_shed_when_full () =
  with_server ~clients:1 @@ fun ~path ~svc:_ ~srv:_ ->
  let c1 = Service.Shm_conn.connect ~path in
  Fun.protect ~finally:(fun () -> Service.Shm_conn.close c1)
  @@ fun () ->
  (* Claim the only tid with a live call. *)
  (match Service.Shm_conn.call c1 (Codec.Put { key = 1; value = 1 }) with
  | Codec.Created -> ()
  | r -> Alcotest.failf "c1 put: %s" (Codec.reply_to_string r));
  let c2 = Service.Shm_conn.connect ~path in
  (* The daemon sheds: one Shed reply, then the segment closes. *)
  match Service.Shm_conn.call c2 (Codec.Get 1) with
  | Codec.Shed -> ()
  | r -> Alcotest.failf "expected Shed, got %s" (Codec.reply_to_string r)
  | exception Service.Conn.Closed -> ()

let test_shm_conn_connect_without_daemon () =
  let path = tmp_name "no-daemon" in
  match Service.Shm_conn.connect ~path with
  | _ -> Alcotest.fail "connect with no daemon must fail"
  | exception Service.Shm_conn.Unavailable _ -> ()

let test_shm_conn_shutdown_wakes_client () =
  let svc = make_svc () in
  let path = tmp_name "kvd-shutdown" in
  let srv = Service.Shm_conn.serve svc ~path () in
  let c = Service.Shm_conn.connect ~path in
  (match Service.Shm_conn.call c (Codec.Put { key = 9; value = 9 }) with
  | Codec.Created -> ()
  | r -> Alcotest.failf "put: %s" (Codec.reply_to_string r));
  Service.Shm_conn.shutdown srv;
  (* The segment is stamped closed and unlinked: the next call fails
     cleanly rather than hanging. *)
  (match Service.Shm_conn.call c (Codec.Get 9) with
  | _ -> Alcotest.fail "call after shutdown must raise"
  | exception Service.Conn.Closed -> ());
  Alcotest.(check bool) "listen FIFO unlinked" false (Sys.file_exists path);
  Service.Shm_conn.close c;
  svc.Service.Shard.stop ()

let test_shm_conn_faults_parity () =
  let faults = Service.Conn.Faults.create () in
  with_server ~faults @@ fun ~path ~svc:_ ~srv:_ ->
  let c = Service.Shm_conn.connect ~path in
  (match Service.Shm_conn.call c (Codec.Put { key = 3; value = 3 }) with
  | Codec.Created -> ()
  | r -> Alcotest.failf "put: %s" (Codec.reply_to_string r));
  Service.Conn.Faults.arm_truncate_reply faults 1;
  (* The damaged reply must surface as a clean connection death — the
     reader reports the torn commit stamp, never decodes garbage. *)
  (match Service.Shm_conn.call c (Codec.Get 3) with
  | r -> Alcotest.failf "expected Closed, got %s" (Codec.reply_to_string r)
  | exception Service.Conn.Closed -> ());
  Service.Shm_conn.close c;
  (* A fresh connection still works: only the damaged conn died. *)
  let c2 = Service.Shm_conn.connect ~path in
  (match Service.Shm_conn.call c2 (Codec.Get 3) with
  | Codec.Value 3 -> ()
  | r -> Alcotest.failf "fresh conn: %s" (Codec.reply_to_string r));
  Service.Shm_conn.close c2

(* The serving engine survives a hostile ring writer.  A correctly
   stamped frame with length in (Codec.max_frame, ring max_payload] is
   craftable by any same-uid writer — the commit stamp is a pure
   function of seq/len — and must cost that connection, never the
   daemon (Codec.Malformed once escaped the ring reader and killed the
   serving domain). *)
let test_shm_conn_oversize_frame_kills_conn_not_daemon () =
  with_server @@ fun ~path ~svc:_ ~srv:_ ->
  let seg_path = Printf.sprintf "%s.seg.%d.999" path (Unix.getpid ()) in
  let seg = Shm.Seg.create ~path:seg_path () in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 in
  let line = Printf.sprintf "%s %d\n" seg_path (Shm.Seg.generation seg) in
  ignore (Unix.write_substring fd line 0 (String.length line));
  Unix.close fd;
  let tx = Shm.Seg.c2s_ring seg in
  let plen = 2 * Codec.max_frame in
  let frame = Bytes.create (4 + plen) in
  Bytes.set_int32_be frame 0 (Int32.of_int plen);
  Alcotest.(check bool)
    "oversized frame enters the ring" true
    (Shm.Ring.try_send tx frame ~pos:0 ~len:(4 + plen));
  let srv_bell = Shm.Doorbell.attach ~path:(Shm.Seg.srv_bell seg) in
  Shm.Doorbell.ring srv_bell;
  (* The daemon stamps the connection closed rather than dying. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Shm.Seg.is_open seg && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  Alcotest.(check bool) "hostile connection killed" false (Shm.Seg.is_open seg);
  Shm.Doorbell.close srv_bell;
  Shm.Seg.detach seg;
  (* The engine survived: a legitimate client still works. *)
  let c = Service.Shm_conn.connect ~path in
  (match Service.Shm_conn.call c (Codec.Put { key = 1; value = 1 }) with
  | Codec.Created -> ()
  | r -> Alcotest.failf "daemon after oversize frame: %s" (Codec.reply_to_string r));
  Service.Shm_conn.close c

(* A client killed while its segment is open never stamps it closed,
   but its doorbell's write end closes with the process.  The engine
   must read that as the client's death and close the connection —
   sweeping its slot — instead of polling a hung-up bell forever. *)
let test_shm_conn_reaps_dead_client () =
  with_server ~clients:1 @@ fun ~path ~svc:_ ~srv:_ ->
  let seg_path = Printf.sprintf "%s.seg.%d.998" path (Unix.getpid ()) in
  let seg = Shm.Seg.create ~path:seg_path () in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 in
  let line = Printf.sprintf "%s %d\n" seg_path (Shm.Seg.generation seg) in
  ignore (Unix.write_substring fd line 0 (String.length line));
  Unix.close fd;
  let tx = Shm.Seg.c2s_ring seg and rx = Shm.Seg.s2c_ring seg in
  let out = Buffer.create 16 in
  Codec.encode_request out (Codec.Put { key = 4; value = 4 });
  let b = Buffer.to_bytes out in
  ignore (Shm.Ring.try_send tx b ~pos:0 ~len:(Bytes.length b));
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Shm.Ring.pending rx = `Empty && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Alcotest.(check bool) "served while alive" true (Shm.Ring.pending rx <> `Empty);
  (* Ring once (which opens the bell's write end, as a client's first
     ring does), then die: the write end closes, the segment stays
     open. *)
  let srv_bell = Shm.Doorbell.attach ~path:(Shm.Seg.srv_bell seg) in
  Shm.Doorbell.ring srv_bell;
  Shm.Doorbell.close srv_bell;
  while Shm.Seg.is_open seg && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  Alcotest.(check bool) "dead client's connection closed" false
    (Shm.Seg.is_open seg);
  Shm.Seg.detach seg;
  (* Its tid (the only one) went back to the pool. *)
  let c = Service.Shm_conn.connect ~path in
  (match Service.Shm_conn.call c (Codec.Get 4) with
  | Codec.Value 4 -> ()
  | r -> Alcotest.failf "next client: %s" (Codec.reply_to_string r));
  Service.Shm_conn.close c

(* A segment whose doorbell FIFO is gone cannot be served: it is
   swept at attach, and its tid stays in the pool. *)
let test_shm_conn_bell_less_segment_swept () =
  with_server ~clients:1 @@ fun ~path ~svc:_ ~srv:_ ->
  let seg_path = Printf.sprintf "%s.seg.%d.997" path (Unix.getpid ()) in
  let seg = Shm.Seg.create ~path:seg_path () in
  Unix.unlink (Shm.Seg.srv_bell seg);
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 in
  let line = Printf.sprintf "%s %d\n" seg_path (Shm.Seg.generation seg) in
  ignore (Unix.write_substring fd line 0 (String.length line));
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Sys.file_exists seg_path && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  Alcotest.(check bool) "segment swept" false (Sys.file_exists seg_path);
  Shm.Seg.detach seg;
  let c = Service.Shm_conn.connect ~path in
  (match Service.Shm_conn.call c (Codec.Put { key = 3; value = 3 }) with
  | Codec.Created -> ()
  | r -> Alcotest.failf "next client: %s" (Codec.reply_to_string r));
  Service.Shm_conn.close c

(* Announce lines naming paths outside "<listen>.seg.*" are ignored:
   the FIFO is same-uid writable, and the daemon must not mmap or
   unlink an arbitrary path on a writer's say-so. *)
let test_shm_conn_rejects_foreign_announce () =
  with_server @@ fun ~path ~svc:_ ~srv:_ ->
  let victim = tmp_name "victim" in
  let oc = open_out victim in
  output_string oc "precious";
  close_out oc;
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 in
  List.iter
    (fun line ->
      ignore (Unix.write_substring fd line 0 (String.length line)))
    [
      victim ^ " not-a-number\n";
      victim ^ " 1\n";
      (* Prefix-satisfying but slash-smuggling relative escape. *)
      path ^ ".seg./../" ^ Filename.basename victim ^ " 1\n";
    ];
  Unix.close fd;
  (* A later connect's announce rides the same FIFO, so a completed
     call proves the foreign lines were already consumed. *)
  let c = Service.Shm_conn.connect ~path in
  (match Service.Shm_conn.call c (Codec.Put { key = 2; value = 2 }) with
  | Codec.Created -> ()
  | r -> Alcotest.failf "daemon after foreign announce: %s" (Codec.reply_to_string r));
  Service.Shm_conn.close c;
  Alcotest.(check bool) "victim file untouched" true (Sys.file_exists victim);
  Sys.remove victim

let test_shm_conn_stale_listen_claim () =
  (* A dead daemon's listen FIFO and segments are swept by the next
     serve, not deadlocked on. *)
  let path = tmp_name "stale-listen" in
  Unix.mkfifo path 0o600;
  let stale_seg = path ^ ".seg.99999.0" in
  let seg = Shm.Seg.create ~path:stale_seg () in
  Shm.Seg.detach seg;
  let svc = make_svc () in
  let srv = Service.Shm_conn.serve svc ~path () in
  Fun.protect ~finally:(fun () ->
      Service.Shm_conn.shutdown srv;
      svc.Service.Shard.stop ())
  @@ fun () ->
  Alcotest.(check bool) "stale segment swept" false (Sys.file_exists stale_seg);
  let c = Service.Shm_conn.connect ~path in
  (match Service.Shm_conn.call c (Codec.Put { key = 1; value = 2 }) with
  | Codec.Created -> ()
  | r -> Alcotest.failf "put on reclaimed path: %s" (Codec.reply_to_string r));
  Service.Shm_conn.close c

(* ------------------------------------------------------------------ *)
(* Zero-copy bracket-protected GETs. *)

let test_zerocopy_roundtrip () =
  let svc = make_svc ~zc_readers:2 () in
  Fun.protect ~finally:(fun () -> svc.Service.Shard.stop ())
  @@ fun () ->
  match Service.Conn.Zerocopy.connect svc ~tid:0 with
  | None -> Alcotest.fail "slot available"
  | Some c ->
      Fun.protect ~finally:(fun () -> Service.Conn.Zerocopy.close c)
      @@ fun () ->
      (* Writes take the ordinary routed path. *)
      (match Service.Conn.Zerocopy.call c (Codec.Put { key = 7; value = 70 })
       with
      | Codec.Created -> ()
      | r -> Alcotest.failf "put: %s" (Codec.reply_to_string r));
      (* Reads are direct, inside the bracket. *)
      Service.Conn.Zerocopy.with_bracket c (fun () ->
          Alcotest.(check (option int))
            "zc get" (Some 70)
            (Service.Conn.Zerocopy.get c 7);
          Alcotest.(check (option int))
            "zc miss" None
            (Service.Conn.Zerocopy.get c 8));
      (* Reads outside the bracket are a contract violation. *)
      (match Service.Conn.Zerocopy.get c 7 with
      | _ -> Alcotest.fail "get outside bracket must raise"
      | exception Invalid_argument _ -> ())

let test_zerocopy_slot_exhaustion () =
  let svc = make_svc ~zc_readers:1 () in
  Fun.protect ~finally:(fun () -> svc.Service.Shard.stop ())
  @@ fun () ->
  match Service.Conn.Zerocopy.connect svc ~tid:0 with
  | None -> Alcotest.fail "first lease"
  | Some c1 ->
      (match Service.Conn.Zerocopy.connect svc ~tid:1 with
      | Some _ -> Alcotest.fail "second lease must fail"
      | None -> ());
      Service.Conn.Zerocopy.close c1;
      (* Released slots are transparently reusable. *)
      (match Service.Conn.Zerocopy.connect svc ~tid:1 with
      | Some c2 -> Service.Conn.Zerocopy.close c2
      | None -> Alcotest.fail "slot not recycled")

(* The robustness contrast, in miniature: a zero-copy reader stalls
   inside its bracket while the consumer churns retirements (every
   overwrite and delete retires a node), and the backlog is sampled
   after [n] and [2n] put/del pairs.  Every registry scheme is judged
   by its own [robust] flag: a robust backlog stays flat and under a
   quarter of the [2n] pairs, a non-robust one grows and ends above
   it. *)
let stalled_backlog (s : Workload.Registry.scheme) ~n =
  let svc = make_svc ~shards:1 ~zc_readers:1 ~scheme:s.Workload.Registry.s_name () in
  Fun.protect ~finally:(fun () -> svc.Service.Shard.stop ())
  @@ fun () ->
  match Service.Conn.Zerocopy.connect svc ~tid:0 with
  | None -> Alcotest.fail "lease"
  | Some c ->
      Fun.protect ~finally:(fun () -> Service.Conn.Zerocopy.close c)
      @@ fun () ->
      Service.Conn.Zerocopy.enter c;
      (* The stalled client: bracket open, never reading on. *)
      let lc = Service.Conn.Loopback.connect svc ~tid:1 in
      let churn () =
        for i = 0 to n - 1 do
          ignore (Service.Conn.Loopback.call lc (Codec.Put { key = i land 15; value = i }));
          ignore (Service.Conn.Loopback.call lc (Codec.Del (i land 15)))
        done;
        List.fold_left
          (fun acc st -> acc + Smr.Stats.unreclaimed st)
          0
          (svc.Service.Shard.data_stats ())
      in
      let at_n = churn () in
      let at_2n = churn () in
      Service.Conn.Zerocopy.leave c;
      Workload.Stalled.row s ~at_n ~at_2n

let test_zerocopy_stalled_reader_robustness () =
  let n = 1500 in
  let slack = Workload.Stalled.slack Service.Shard.default_config.Service.Shard.smr in
  let failures =
    List.filter_map
      (fun s ->
        Workload.Stalled.judge ~slack ~bound:(2 * n / 4) ~floor:(2 * n / 4)
          (stalled_backlog s ~n))
      Workload.Registry.schemes
  in
  if failures <> [] then Alcotest.fail (String.concat "; " failures)

(* ------------------------------------------------------------------ *)
(* Cross-process zero-copy: arena-backed store, by-reference GETs. *)

let with_arena_server ?(policy = Shmalloc.Arena.Handoff) ?(clients = 2) f =
  let path = tmp_name "kvd-arena" in
  let arena =
    Shmalloc.Arena.create ~path:(path ^ ".arena") ~slots:clients ~policy
      ~tids:2 ()
  in
  let svc =
    Service.Shard.create
      ~structure:(Workload.Registry.find_structure "hashmap")
      ~scheme:(Workload.Registry.find_scheme "hyaline")
      {
        Service.Shard.default_config with
        Service.Shard.shards = 2;
        clients;
        mailbox_capacity = 64;
        zc_readers = 1;
        arena = Some arena;
      }
  in
  let srv = Service.Shm_conn.serve svc ~path () in
  Fun.protect ~finally:(fun () ->
      Service.Shm_conn.shutdown srv;
      svc.Service.Shard.stop ();
      Shmalloc.Arena.mark_closed arena;
      Shmalloc.Arena.detach arena;
      Shmalloc.Arena.unlink arena)
  @@ fun () -> f ~path ~svc ~srv ~arena

let test_zc_remote_roundtrip () =
  with_arena_server @@ fun ~path ~svc:_ ~srv:_ ~arena:_ ->
  let c = Service.Shm_conn.connect ~path in
  Fun.protect ~finally:(fun () -> Service.Shm_conn.close c)
  @@ fun () ->
  let check name expected req =
    Alcotest.(check string)
      name
      (Codec.reply_to_string expected)
      (Codec.reply_to_string (Service.Shm_conn.call c req))
  in
  (* Before negotiation every reply is materialized daemon-side —
     byte-identical to the heap-backed transport. *)
  check "pre-zc put" Codec.Created (Codec.Put { key = 1; value = 10 });
  check "pre-zc get" (Codec.Value 10) (Codec.Get 1);
  Alcotest.(check bool) "negotiates" true (Service.Shm_conn.enable_zc c);
  Alcotest.(check bool) "active" true (Service.Shm_conn.zc_active c);
  (* After negotiation GETs travel by reference and the client
     materializes from its own mapping — the replies must not change. *)
  check "zc get int" (Codec.Value 10) (Codec.Get 1);
  check "zc get miss" Codec.Not_found (Codec.Get 2);
  check "zc overwrite" Codec.Updated (Codec.Put { key = 1; value = 11 });
  check "zc get after write" (Codec.Value 11) (Codec.Get 1);
  check "zc cas" Codec.Cas_ok (Codec.Cas { key = 1; expected = 11; desired = 12 });
  check "zc get after cas" (Codec.Value 12) (Codec.Get 1);
  (* Blob traffic: by reference out, copy path on demand. *)
  let blob = String.init 600 (fun i -> Char.chr (i land 0xff)) in
  check "putb" Codec.Created (Codec.Putb { key = 3; value = blob });
  check "zc get blob" (Codec.Value_blob blob) (Codec.Get 3);
  check "getc blob" (Codec.Value_blob blob) (Codec.Getc 3);
  check "del blob" Codec.Deleted (Codec.Del 3);
  check "get after del" Codec.Not_found (Codec.Get 3);
  (* The largest legal blob still round-trips... *)
  let big = String.make Codec.blob_max 'x' in
  check "putb max" Codec.Created (Codec.Putb { key = 4; value = big });
  check "zc get max blob" (Codec.Value_blob big) (Codec.Get 4);
  (* ...and one byte over is refused at the codec, before any frame
     leaves the client. *)
  match
    Service.Shm_conn.call c
      (Codec.Putb { key = 4; value = String.make (Codec.blob_max + 1) 'x' })
  with
  | r -> Alcotest.failf "oversized putb: %s" (Codec.reply_to_string r)
  | exception Invalid_argument _ -> ()

let test_zc_remote_second_client_copy_path () =
  with_arena_server @@ fun ~path ~svc:_ ~srv:_ ~arena:_ ->
  let c1 = Service.Shm_conn.connect ~path in
  let c2 = Service.Shm_conn.connect ~path in
  Fun.protect ~finally:(fun () ->
      Service.Shm_conn.close c1;
      Service.Shm_conn.close c2)
  @@ fun () ->
  Alcotest.(check bool) "c1 negotiates" true (Service.Shm_conn.enable_zc c1);
  (match Service.Shm_conn.call c1 (Codec.Put { key = 5; value = 55 }) with
  | Codec.Created -> ()
  | r -> Alcotest.failf "c1 put: %s" (Codec.reply_to_string r));
  (* c2 never negotiated: its GET takes the routed path and arrives
     materialized — a raw reference must never reach it. *)
  (match Service.Shm_conn.call c2 (Codec.Get 5) with
  | Codec.Value 55 -> ()
  | r -> Alcotest.failf "c2 get: %s" (Codec.reply_to_string r));
  (* And c1's by-reference read agrees. *)
  match Service.Shm_conn.call c1 (Codec.Get 5) with
  | Codec.Value 55 -> ()
  | r -> Alcotest.failf "c1 get: %s" (Codec.reply_to_string r)

let test_zc_remote_dead_client_slot_swept () =
  with_arena_server @@ fun ~path ~svc:_ ~srv:_ ~arena ->
  let c = Service.Shm_conn.connect ~path in
  Alcotest.(check bool) "negotiates" true (Service.Shm_conn.enable_zc c);
  let slot = Option.get (Service.Shm_conn.zc_slot c) in
  (match Service.Shm_conn.call c (Codec.Put { key = 1; value = 1 }) with
  | Codec.Created -> ()
  | r -> Alcotest.failf "put: %s" (Codec.reply_to_string r));
  (* Park the reservation open, then die without releasing it. *)
  Service.Shm_conn.zc_hold c;
  Alcotest.(check bool) "era pinned" true (Shmalloc.Arena.slot_era arena ~slot <> 0);
  Service.Shm_conn.close c;
  (* The engine sweeps the connection — and with it the arena
     reservation slot the dead client left pinned. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    Shmalloc.Arena.slot_era arena ~slot <> 0
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.01
  done;
  Alcotest.(check int) "slot force-cleared" 0 (Shmalloc.Arena.slot_era arena ~slot)

let test_zc_remote_stale_arena_swept () =
  (* A SIGKILLed daemon leaves its listen FIFO and arena file behind;
     the next serve's claim sweeps both before creating fresh state. *)
  let path = tmp_name "stale-arena" in
  Unix.mkfifo path 0o600;
  let stale = path ^ ".arena" in
  let a = Shmalloc.Arena.create ~path:stale ~slots:2 ~tids:1 () in
  Shmalloc.Arena.detach a;
  Alcotest.(check bool) "stale arena present" true (Sys.file_exists stale);
  Service.Shm_conn.claim_listen_path path;
  Alcotest.(check bool) "stale arena swept" false (Sys.file_exists stale);
  Alcotest.(check bool) "stale fifo swept" false (Sys.file_exists path)

let suites =
  [
    ( "shm.ring",
      [
        Alcotest.test_case "roundtrip" `Quick test_ring_roundtrip;
        Alcotest.test_case "wrap property (5k random frames)" `Quick
          test_ring_wrap_property;
        Alcotest.test_case "queued messages across wraps" `Quick
          test_ring_queued_wrap;
        Alcotest.test_case "full ring refuses, drain frees" `Quick
          test_ring_full_then_drain;
        Alcotest.test_case "torn commit stamp reported, sticky" `Quick
          test_ring_torn_stamp;
        Alcotest.test_case "mid-frame truncation reported" `Quick
          test_ring_truncated_write;
        Alcotest.test_case "damage detected at every wrap phase" `Quick
          test_ring_torn_at_wrap_phases;
        Alcotest.test_case "malformed sends rejected" `Quick
          test_ring_rejects_malformed;
        Alcotest.test_case "codec frames decode over the ring source" `Quick
          test_codec_over_ring;
      ] );
    ( "shm.seg",
      [
        Alcotest.test_case "create/attach, cross-mapping visibility" `Quick
          test_seg_create_attach;
        Alcotest.test_case "generation mismatch rejected" `Quick
          test_seg_generation_mismatch;
        Alcotest.test_case "closed segment rejected" `Quick
          test_seg_closed_attach;
        Alcotest.test_case "garbage file rejected" `Quick
          test_seg_garbage_attach;
        Alcotest.test_case "unlink sweeps seg + bells" `Quick
          test_seg_unlink_sweeps_files;
      ] );
    ( "shm.doorbell",
      [
        Alcotest.test_case "ready fast path makes no flag traffic" `Quick
          test_doorbell_ready_fast_path;
        Alcotest.test_case "predicate polled on every relax" `Quick
          test_doorbell_polls_every_relax;
        Alcotest.test_case "spin budget counted in relaxes" `Quick
          test_doorbell_spin_budget;
        Alcotest.test_case "ring wakes a sleeping waiter" `Quick
          test_doorbell_wakes_sleeper;
      ] );
    ( "shm.conn",
      [
        Alcotest.test_case "all opcodes round-trip" `Quick
          test_shm_conn_opcodes;
        Alcotest.test_case "500 puts + 500 gets" `Quick
          test_shm_conn_many_requests;
        Alcotest.test_case "two clients share state" `Quick
          test_shm_conn_two_clients;
        Alcotest.test_case "shed when client slots exhausted" `Quick
          test_shm_conn_shed_when_full;
        Alcotest.test_case "connect without daemon fails cleanly" `Quick
          test_shm_conn_connect_without_daemon;
        Alcotest.test_case "shutdown closes segments and unlinks" `Quick
          test_shm_conn_shutdown_wakes_client;
        Alcotest.test_case "reply faults surface as Closed (parity)" `Quick
          test_shm_conn_faults_parity;
        Alcotest.test_case "oversize stamped frame kills conn, not daemon"
          `Quick test_shm_conn_oversize_frame_kills_conn_not_daemon;
        Alcotest.test_case "foreign announce paths ignored" `Quick
          test_shm_conn_rejects_foreign_announce;
        Alcotest.test_case "a client that dies holding its segment is reaped"
          `Quick test_shm_conn_reaps_dead_client;
        Alcotest.test_case "a segment without its doorbell is swept" `Quick
          test_shm_conn_bell_less_segment_swept;
        Alcotest.test_case "stale listen FIFO swept and reclaimed" `Quick
          test_shm_conn_stale_listen_claim;
      ] );
    ( "shm.zerocopy",
      [
        Alcotest.test_case "bracket-protected direct reads" `Quick
          test_zerocopy_roundtrip;
        Alcotest.test_case "slot lease/exhaust/recycle" `Quick
          test_zerocopy_slot_exhaustion;
        Alcotest.test_case "stalled reader: robust flag judged registry-wide"
          `Quick test_zerocopy_stalled_reader_robustness;
      ] );
    ( "shm.zc-remote",
      [
        Alcotest.test_case "by-reference GETs are reply-identical" `Quick
          test_zc_remote_roundtrip;
        Alcotest.test_case "non-negotiated client stays on copy path" `Quick
          test_zc_remote_second_client_copy_path;
        Alcotest.test_case "dead client's reservation slot swept" `Quick
          test_zc_remote_dead_client_slot_swept;
        Alcotest.test_case "stale arena file swept on claim" `Quick
          test_zc_remote_stale_arena_swept;
      ] );
  ]
