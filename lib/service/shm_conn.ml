(* The shared-memory transport: same Codec frames as the socket path,
   carried over mmap'd SPSC rings with no syscall per operation on the
   hot path.

   Topology.  The daemon owns a listen FIFO (the rendezvous name, what
   the socket path is to the unix transport).  A client creates its
   own segment file next to it — two rings plus doorbells, see
   [Shm.Seg] — and announces "<segpath> <generation>\n" over the
   listen FIFO.  The generation is echoed out-of-band so the daemon's
   attach validates it against the segment header: a leftover file
   from a dead peer (or a re-used name) fails [Bad_segment] and is
   swept, never conversed with.

   The daemon runs ONE multiplexer domain for every connection, as
   the unix transport's event loop does — but where the event loop
   still pays a read and a write syscall per op, the multiplexer
   touches no descriptor under load.  It pumps each
   connection's request ring, submits asynchronously to the shard
   service, and emits replies in request order from a per-connection
   reorder window, so one domain stays work-conserving across every
   client: under load it never sleeps and never syscalls — requests
   and replies move purely through shared memory.

   Sleep/wake is the doorbell protocol at both ends, nested so no
   wakeup is lost: each sleeper publishes a waiting flag (in the
   segment header for ring traffic; a process-local atomic for the
   shard consumers' completion callbacks), re-checks its ready
   condition, then blocks in [select] with a bounded timeout; each
   waker publishes its data first and rings only if it then observes
   the flag.  Shard completions wake the multiplexer through a
   self-pipe, clients through their segment's doorbell FIFO. *)

exception Unavailable of string

let window_cap = 64

(* The daemon's value arena lives beside the listen FIFO under this
   suffix; clients learn the generation over the wire ([A_info]) and
   attach the same file to materialize [Val_ref] replies locally. *)
let arena_suffix = ".arena"

(* ------------------------------------------------------------------ *)
(* Client. *)

(* Zero-copy state, present once [enable_zc] negotiated an arena.
   [z_slot] is the daemon-assigned reservation slot (the connection's
   leased tid); [z_held] pins the reservation bracket open across
   calls — the stalled-remote-reader experiments' park switch. *)
type zc_state = {
  za : Shmalloc.Arena.t;
  z_slot : int;
  mutable z_held : bool;
}

type client = {
  c_path : string;  (* the daemon's listen path *)
  seg : Shm.Seg.t;
  tx : Shm.Ring.t;  (* c2s: client writes *)
  rx : Shm.Ring.t;  (* s2c: client reads *)
  rx_reader : Codec.reader;
  bell : Shm.Doorbell.t;  (* client sleeps here; daemon rings *)
  srv_bell : Shm.Doorbell.t;  (* daemon sleeps there; client rings *)
  buf : Buffer.t;
  mutable closed : bool;
  mutable zc : zc_state option;
}

let conn_counter = Atomic.make 0

let announce_client ~path ~seg =
  (* O_NONBLOCK open of the FIFO's write end: ENXIO means nobody is
     reading — no daemon. *)
  let fd =
    match Unix.openfile path [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ENXIO | Unix.ENOENT), _, _) ->
        raise (Unavailable (path ^ ": no daemon is listening"))
  in
  Fun.protect ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let line =
    Printf.sprintf "%s %d\n" (Shm.Seg.path seg) (Shm.Seg.generation seg)
  in
  let b = Bytes.of_string line in
  (* The line is comfortably under PIPE_BUF, so the nonblocking write
     is atomic even with concurrent connectors: all-or-EAGAIN on the
     fast path.  EAGAIN means the listen FIFO is full under a connect
     storm — retry briefly rather than surfacing a raw Unix_error.
     The short-write loop is belt-and-braces (it cannot trigger for a
     sub-PIPE_BUF line, but once any byte is out the line must be
     completed or abandoned to a dead daemon). *)
  let rec write_from off attempts =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> write_from (off + n) attempts
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          write_from off attempts
      | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
          raise (Unavailable (path ^ ": daemon went away during connect"))
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
          if attempts >= 1000 then
            raise (Unavailable (path ^ ": daemon announce queue is full"))
          else begin
            Unix.sleepf 0.001;
            write_from off (attempts + 1)
          end
  in
  write_from 0 0

let connect ~path =
  let seg_path =
    Printf.sprintf "%s.seg.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add conn_counter 1)
  in
  let seg = Shm.Seg.create ~path:seg_path () in
  match announce_client ~path ~seg with
  | () ->
      let rx = Shm.Seg.s2c_ring seg in
      {
        c_path = path;
        seg;
        tx = Shm.Seg.c2s_ring seg;
        rx;
        rx_reader = Codec.frame_reader (Shm.Ring.source rx);
        bell = Shm.Doorbell.attach ~path:(Shm.Seg.cli_bell seg);
        srv_bell = Shm.Doorbell.attach ~path:(Shm.Seg.srv_bell seg);
        buf = Buffer.create 64;
        closed = false;
        zc = None;
      }
  | exception e ->
      Shm.Seg.mark_closed seg;
      Shm.Seg.detach seg;
      Shm.Seg.unlink seg;
      raise e

let drop_zc c =
  match c.zc with
  | None -> ()
  | Some z ->
      c.zc <- None;
      (* [leave] on an empty reservation word is a no-op exchange, so
         this is safe whether or not a hold (or an interrupted call's
         bracket) is open. *)
      (try Shmalloc.Arena.leave z.za ~slot:z.z_slot
       with Shmalloc.Arena.Bad_arena _ -> ());
      (try Shmalloc.Arena.detach z.za with Shmalloc.Arena.Bad_arena _ -> ())

let client_dead c =
  if not c.closed then begin
    c.closed <- true;
    drop_zc c;
    Shm.Seg.mark_closed c.seg;
    Shm.Doorbell.close c.bell;
    Shm.Doorbell.close c.srv_bell;
    Shm.Seg.detach c.seg
  end

(* Ring the daemon only if it published its waiting flag — the
   zero-syscall fast path when the multiplexer is busy. *)
let nudge_server c =
  if Shm.Seg.server_waiting c.seg then Shm.Doorbell.ring c.srv_bell

(* How long a blocked client spins before sleeping on its doorbell.
   With spare cores, spinning rides out the daemon's reply latency
   without a sleep/wake round trip.  On a box with no spare core the
   spin is actively harmful — a spinning client burns the very
   timeslice the multiplexer and shard consumers need to produce the
   reply, so the client must yield almost immediately (the FIFO wakeup
   is directed, a few microseconds). *)
let client_spin =
  if Domain.recommended_domain_count () > 4 then Shm.Doorbell.default_spin
  else 4

let client_wait c ~ready =
  Shm.Doorbell.wait c.bell ~spin:client_spin
    ~announce:(fun b -> Shm.Seg.set_client_waiting c.seg b)
    ~ready

let send_bytes c b =
  let len = Bytes.length b in
  let sent = ref (Shm.Ring.try_send c.tx b ~pos:0 ~len) in
  if !sent then nudge_server c
  else
    while not !sent do
      if not (Shm.Seg.is_open c.seg) then (client_dead c; raise Conn.Closed);
      (* Full ring: the daemon must drain.  Make sure it is awake,
         then wait for space on our doorbell (the daemon rings it
         after consuming requests as well as after writing replies). *)
      nudge_server c;
      client_wait c ~ready:(fun () ->
          Shm.Ring.send_space c.tx >= len + 4
          || not (Shm.Seg.is_open c.seg));
      if Shm.Ring.try_send c.tx b ~pos:0 ~len then begin
        sent := true;
        nudge_server c
      end
    done

let rec recv_reply c =
  match Shm.Ring.pending c.rx with
  | `Torn _ ->
      client_dead c;
      raise Conn.Closed
  | `Msg plen when plen > Codec.max_frame ->
      (* Stamped consistently but over the codec limit: corruption (or
         a hostile writer).  Same fate as [`Torn] — never decoded. *)
      client_dead c;
      raise Conn.Closed
  | `Msg _ -> (
      match Codec.next_frame c.rx_reader with
      | Codec.Frame payload ->
          Shm.Ring.finish_msg c.rx;
          payload
      | Codec.Eof | Codec.Torn _ ->
          (* [pending] guaranteed a complete message; only header/ring
             corruption can land here. *)
          client_dead c;
          raise Conn.Closed
      | exception Codec.Malformed _ ->
          client_dead c;
          raise Conn.Closed)
  | `Empty ->
      if not (Shm.Seg.is_open c.seg) then (client_dead c; raise Conn.Closed);
      client_wait c ~ready:(fun () ->
          (match Shm.Ring.pending c.rx with `Empty -> false | _ -> true)
          || not (Shm.Seg.is_open c.seg));
      recv_reply c

let raw_call c req =
  if c.closed then raise Conn.Closed;
  Buffer.clear c.buf;
  Codec.encode_request c.buf req;
  let b = Buffer.to_bytes c.buf in
  Buffer.clear c.buf;
  send_bytes c b;
  let payload = recv_reply c in
  Codec.reply_of_payload payload

(* Materialize a by-reference GET reply from the client's own mapping.
   A failed generation check ([read_ref] = None) means the block was
   retired under us between mint and copy-out — never decoded, retried
   through the daemon-side copy path ([Getc]). *)
let materialize c z ~key = function
  | Codec.Val_ref { cls; off; len; gen } -> (
      match Shmalloc.Arena.read_ref z.za ~cls ~off ~len ~gen () with
      | Some payload -> Codec.reply_of_arena_payload payload
      | None -> raw_call c (Codec.Getc key))
  | r -> r

let call c req =
  match (req, c.zc) with
  | Codec.Get key, Some z ->
      Shmalloc.Arena.heartbeat z.za ~slot:z.z_slot;
      if z.z_held then
        (* A hold keeps the bracket (and its pinned era) open across
           calls — don't refresh, that is the point of the park. *)
        materialize c z ~key (raw_call c req)
      else begin
        Shmalloc.Arena.enter z.za ~slot:z.z_slot;
        Fun.protect
          ~finally:(fun () -> Shmalloc.Arena.leave z.za ~slot:z.z_slot)
        @@ fun () -> materialize c z ~key (raw_call c req)
      end
  | _ -> raw_call c req

let enable_zc c =
  match c.zc with
  | Some _ -> true
  | None -> (
      match raw_call c Codec.A_info with
      | Codec.Arena_info { slot; gen; size = _ } when slot >= 0 -> (
          match
            Shmalloc.Arena.attach ~path:(c.c_path ^ arena_suffix)
              ~expect_gen:gen ()
          with
          | a ->
              Shmalloc.Arena.announce a ~slot ~pid:(Unix.getpid ());
              c.zc <- Some { za = a; z_slot = slot; z_held = false };
              true
          | exception Shmalloc.Arena.Bad_arena _ -> false
          | exception Unix.Unix_error _ -> false)
      | _ -> false)

let zc_active c = c.zc <> None
let zc_slot c = match c.zc with Some z -> Some z.z_slot | None -> None

let zc_hold c =
  match c.zc with
  | Some z when not z.z_held ->
      Shmalloc.Arena.enter z.za ~slot:z.z_slot;
      z.z_held <- true
  | _ -> ()

let zc_release c =
  match c.zc with
  | Some z when z.z_held ->
      z.z_held <- false;
      Shmalloc.Arena.leave z.za ~slot:z.z_slot
  | _ -> ()

let close c =
  if not c.closed then begin
    client_dead c;
    (* Wake a daemon that may be asleep so it notices the close and
       sweeps the segment. *)
    Shm.Doorbell.ring c.srv_bell;
    Shm.Doorbell.close c.srv_bell
  end

(* ------------------------------------------------------------------ *)
(* Server. *)

type sconn = {
  sc_seg : Shm.Seg.t;
  sc_rx : Shm.Ring.t;  (* c2s: daemon reads *)
  sc_tx : Shm.Ring.t;  (* s2c: daemon writes *)
  sc_reader : Codec.reader;
  sc_bell : Shm.Doorbell.t;  (* daemon sleeps here; client rings *)
  sc_cli_bell : Shm.Doorbell.t;  (* client sleeps there; daemon rings *)
  sc_tid : int;
  (* Replies leave in request order: submissions enqueue one slot
     each, shard consumers fill them from their own domains, and only
     the head-of-queue slot may be emitted. *)
  sc_window : Codec.reply option Atomic.t Queue.t;
  sc_out : Buffer.t;
  mutable sc_pending_out : bytes option;
  mutable sc_dying : bool;
  (* Set when the client negotiated by-reference replies over [A_info]
     — only then may a GET be answered with a raw [Val_ref].  A client
     that never negotiated gets values materialized daemon-side, so
     arena references never leak to a peer with no mapping. *)
  mutable sc_zc : bool;
}

type server = {
  svc : Shard.t;
  path : string;
  listen_rd : Unix.file_descr;
  (* Holding our own write end keeps the FIFO's writer count nonzero,
     so a reader with no connecting clients sees EAGAIN (blockable in
     select) instead of a permanently-readable EOF. *)
  listen_wr : Unix.file_descr;
  pipe_rd : Unix.file_descr;
  pipe_wr : Unix.file_descr;
  running : bool Atomic.t;
  (* True while the multiplexer is inside its announced sleep window;
     completion callbacks write the self-pipe only when set. *)
  mux_waiting : bool Atomic.t;
  completions : int Atomic.t;
  faults : Conn.Faults.t;
  ext : (Codec.request -> Codec.reply option) option;
  (* A zero-copy reader slot leased at serve time (None when the
     service was built with [zc_readers = 0]).  The multiplexer is one
     domain, so it can answer a GET inline through
     [Shard.read_inline] — a bracketed read of the live map that only
     accepts committed state — without the mailbox round trip,
     whenever the connection's reorder window is empty (all earlier
     operations already executed and answered, so per-client program
     order is preserved). *)
  zc_slot : int option;
  mutable conns : sconn list;  (* multiplexer-owned *)
  acc_buf : Buffer.t;  (* partial announce lines *)
  mutable mux : unit Domain.t option;
  stopped : bool Atomic.t;
  (* Free producer-tid slots, leased per connection (transparent
     attach/detach; the socket event loop instead holds every
     connection on one tid). *)
  tids : int list Atomic.t;
}

let rec pop_tid srv =
  match Atomic.get srv.tids with
  | [] -> None
  | t :: rest as old ->
      if Atomic.compare_and_set srv.tids old rest then Some t else pop_tid srv

let rec push_tid srv t =
  let old = Atomic.get srv.tids in
  if not (Atomic.compare_and_set srv.tids old (t :: old)) then push_tid srv t

let sweep_stale_segments path =
  let dir = Filename.dirname path in
  let base = Filename.basename path ^ ".seg." in
  (* The previous daemon's arena file (SIGKILL leaves it behind, like
     the segments) is scoped the same way and swept with them. *)
  let arena_base = Filename.basename path ^ arena_suffix in
  let has_prefix p e =
    String.length e >= String.length p
    && String.sub e 0 (String.length p) = p
  in
  match Sys.readdir dir with
  | entries ->
      Array.iter
        (fun e ->
          if
            (has_prefix base e && String.length e > String.length base)
            || has_prefix arena_base e
          then
            (* Bell FIFOs are unlinked via their owning segment name;
               hitting them directly too is harmless. *)
            try Unix.unlink (Filename.concat dir e)
            with Unix.Unix_error _ -> ())
        entries
  | exception Sys_error _ -> ()

(* Same probe discipline as [Conn.claim_socket_path]: a FIFO whose
   write end opens (someone is reading) belongs to a live daemon;
   ENXIO means stale — sweep it and any leftover segments. *)
let claim_listen_path path =
  if Sys.file_exists path then begin
    match Unix.openfile path [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 with
    | fd ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise (Conn.Addr_in_use path)
    | exception Unix.Unix_error (Unix.ENXIO, _, _) ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        sweep_stale_segments path
    | exception Unix.Unix_error _ ->
        (* Not a FIFO (or unreadable): treat as stale. *)
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        sweep_stale_segments path
  end

let wake_mux srv =
  if Atomic.get srv.mux_waiting then
    try ignore (Unix.write srv.pipe_wr (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _)
    -> ()

let drain_fd fd =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read fd b 0 64 with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let kill_conn srv sc =
  if not sc.sc_dying then sc.sc_dying <- true;
  (* The connection's tid doubled as its arena reservation slot; a
     client that died inside its bracket (or mid-hold) leaves an era
     and possibly a handed batch list pinned there.  Force-clear it on
     the dead client's behalf before the slot is leased again. *)
  (match srv.svc.Shard.arena with
  | Some a -> (
      try Shmalloc.Arena.sweep_slot a ~slot:sc.sc_tid
      with Shmalloc.Arena.Bad_arena _ -> ())
  | None -> ());
  Shm.Seg.mark_closed sc.sc_seg;
  (* Wake a client blocked on its doorbell so it observes the close. *)
  Shm.Doorbell.ring sc.sc_cli_bell;
  Shm.Doorbell.close sc.sc_cli_bell;
  Shm.Doorbell.close sc.sc_bell;
  Shm.Seg.detach sc.sc_seg;
  Shm.Seg.unlink sc.sc_seg;
  (* Producer-side use of the tid happens only inside [pump] calls on
     this (the multiplexer) domain, so the slot is immediately safe to
     reuse — transparent detach, as on the socket path. *)
  push_tid srv sc.sc_tid

(* Emit as many in-order replies as the ring accepts.  Returns true on
   any progress. *)
let pump_out srv sc =
  let progress = ref false in
  let try_send_bytes b =
    let armed_truncate =
      (not (Conn.Faults.is_none srv.faults))
      && Conn.Faults.take_truncate_reply srv.faults
    in
    let armed_torn =
      (not armed_truncate)
      && (not (Conn.Faults.is_none srv.faults))
      && Conn.Faults.take_close_mid_frame srv.faults
    in
    if armed_truncate then Shm.Ring.arm_truncate sc.sc_tx 1;
    if armed_torn then Shm.Ring.arm_torn_stamp sc.sc_tx 1;
    let ok = Shm.Ring.try_send sc.sc_tx b ~pos:0 ~len:(Bytes.length b) in
    if ok && (armed_truncate || armed_torn) then
      (* Parity with the socket faults: a damaged reply costs the
         connection. *)
      sc.sc_dying <- true;
    ok
  in
  (match sc.sc_pending_out with
  | Some b ->
      if try_send_bytes b then begin
        sc.sc_pending_out <- None;
        progress := true
      end
  | None -> ());
  let continue = ref (sc.sc_pending_out = None) in
  while !continue do
    match Queue.peek_opt sc.sc_window with
    | None -> continue := false
    | Some slot -> (
        match Atomic.get slot with
        | None -> continue := false
        | Some reply ->
            Buffer.clear sc.sc_out;
            Codec.encode_reply sc.sc_out reply;
            let b = Buffer.to_bytes sc.sc_out in
            Buffer.clear sc.sc_out;
            ignore (Queue.pop sc.sc_window);
            if try_send_bytes b then progress := true
            else begin
              (* Ring full: park the encoded reply; order is preserved
                 because pending_out always flushes first. *)
              sc.sc_pending_out <- Some b;
              continue := false
            end)
  done;
  !progress

let handle_request srv sc payload =
  match Codec.request_of_payload payload with
  | exception Codec.Malformed m ->
      (* Answer, then drop the connection: the stream position cannot
         be trusted any more (same posture as the socket path). *)
      Queue.push (Atomic.make (Some (Codec.Error ("malformed: " ^ m)))) sc.sc_window;
      sc.sc_dying <- true
  | req -> (
      (* The extension handler (replication opcodes) answers before
         shard routing; [None] falls through to the data path. *)
      match (match srv.ext with Some h -> h req | None -> None) with
      | Some r -> Queue.push (Atomic.make (Some r)) sc.sc_window
      | None -> (
          match req with
          | Codec.A_info when srv.svc.Shard.arena <> None ->
              (* Transport-level interception: the shard's own answer
                 carries slot -1 (disclosure only); here we assign the
                 connection's tid as its reservation slot and flip the
                 connection into by-reference GET replies. *)
              let a = Option.get srv.svc.Shard.arena in
              sc.sc_zc <- true;
              let reply =
                Codec.Arena_info
                  {
                    slot = sc.sc_tid;
                    gen = Shmalloc.Arena.generation a;
                    size = Shmalloc.Arena.size_bytes a;
                  }
              in
              Queue.push (Atomic.make (Some reply)) sc.sc_window
          | _ -> (
              let inline =
                (* The shm hot path: a read of committed state from
                   the multiplexer's own domain.  No mailbox, no
                   consumer wakeup, no syscall.  On an arena-backed
                   store only once the client has negotiated
                   by-reference replies: the read returns the packed
                   reference, and materializing it daemon-side belongs
                   to the shard consumer (the mailbox path). *)
                match (req, srv.zc_slot) with
                | Codec.Get key, Some zc
                  when Queue.is_empty sc.sc_window
                       && (srv.svc.Shard.arena = None || sc.sc_zc) ->
                    Shard.read_inline srv.svc ~slot:zc key
                | _ -> None
              in
              match inline with
              | Some v ->
                  let reply =
                    match (v, srv.svc.Shard.arena) with
                    | None, _ -> Codec.Not_found
                    | Some r, Some a ->
                        (* The stored int IS the packed reference —
                           offset, length and generation stamp were
                           read in one atomic map load, so the frame
                           can never pair a fresh stamp with a stale
                           block. *)
                        Codec.Val_ref
                          {
                            cls = Shmalloc.Arena.Ref.cls r;
                            off = Shmalloc.Arena.off_of_ref a r;
                            len = Shmalloc.Arena.Ref.len r;
                            gen = Shmalloc.Arena.Ref.gen r;
                          }
                    | Some v, None -> Codec.Value v
                  in
                  Queue.push (Atomic.make (Some reply)) sc.sc_window
              | None ->
                  let slot = Atomic.make None in
                  Queue.push slot sc.sc_window;
                  srv.svc.Shard.submit ~tid:sc.sc_tid req (fun r ->
                      Atomic.set slot (Some r);
                      Atomic.incr srv.completions;
                      wake_mux srv))))

(* Drain request frames while the reorder window has room.  Returns
   true on any progress. *)
let pump_in srv sc =
  let progress = ref false in
  let continue = ref true in
  while !continue do
    if sc.sc_dying || Queue.length sc.sc_window >= window_cap then
      continue := false
    else
      match Shm.Ring.pending sc.sc_rx with
      | `Empty -> continue := false
      | `Torn _ ->
          (* The reader reports, never decodes damage: the connection
             dies, the client observes the closed segment. *)
          sc.sc_dying <- true;
          continue := false
      | `Msg plen when plen > Codec.max_frame ->
          (* A correctly-stamped frame over the codec limit is within
             the ring's [max_payload] but can never be a legal request
             — any same-uid ring writer can craft one (the stamp is a
             pure function of seq/len), so damage must cost the
             connection, not the multiplexer domain. *)
          sc.sc_dying <- true;
          continue := false
      | `Msg _ -> (
          if
            (not (Conn.Faults.is_none srv.faults))
            && Conn.Faults.take_delayed_read srv.faults
          then Unix.sleepf (Conn.Faults.delay_s srv.faults);
          match Codec.next_frame sc.sc_reader with
          | Codec.Frame payload ->
              Shm.Ring.finish_msg sc.sc_rx;
              progress := true;
              handle_request srv sc payload
          | Codec.Eof | Codec.Torn _ ->
              sc.sc_dying <- true;
              continue := false
          | exception Codec.Malformed _ ->
              sc.sc_dying <- true;
              continue := false)
  done;
  !progress

(* Only names our own connecting clients generate — the listen path
   plus the ".seg." infix and a slash-free suffix (the same predicate
   [sweep_stale_segments] uses).  Anything else in an announce line is
   ignored outright: the FIFO is same-uid writable, and acting on an
   arbitrary path would let any local writer direct the daemon to mmap
   or unlink files it has no business touching. *)
let valid_seg_path srv seg_path =
  let prefix = srv.path ^ ".seg." in
  let plen = String.length prefix in
  String.length seg_path > plen
  && String.sub seg_path 0 plen = prefix
  && not
       (String.contains
          (String.sub seg_path plen (String.length seg_path - plen))
          '/')

let attach_announced srv line =
  match String.split_on_char ' ' (String.trim line) with
  | [ seg_path; gen_s ] when valid_seg_path srv seg_path -> (
      match int_of_string_opt gen_s with
      | None -> Shm.Seg.unlink_path seg_path
      | Some gen -> (
          match Shm.Seg.attach ~path:seg_path ~expect_gen:gen () with
          | exception Shm.Seg.Bad_segment _ -> Shm.Seg.unlink_path seg_path
          | exception Unix.Unix_error _ -> Shm.Seg.unlink_path seg_path
          | seg -> (
              let tx = Shm.Seg.s2c_ring seg in
              let rx = Shm.Seg.c2s_ring seg in
              let cli_bell = Shm.Doorbell.attach ~path:(Shm.Seg.cli_bell seg) in
              let bell = Shm.Doorbell.attach ~path:(Shm.Seg.srv_bell seg) in
              match pop_tid srv with
              | None ->
                  (* Every client slot is leased: answer one Shed and
                     close — connection-level backpressure, as on the
                     socket path. *)
                  let out = Buffer.create 8 in
                  Codec.encode_reply out Codec.Shed;
                  let b = Buffer.to_bytes out in
                  ignore (Shm.Ring.try_send tx b ~pos:0 ~len:(Bytes.length b));
                  Shm.Doorbell.ring cli_bell;
                  Shm.Seg.mark_closed seg;
                  Shm.Doorbell.close cli_bell;
                  Shm.Doorbell.close bell;
                  Shm.Seg.detach seg;
                  Shm.Seg.unlink seg
              | Some tid ->
                  let sc =
                    {
                      sc_seg = seg;
                      sc_rx = rx;
                      sc_tx = tx;
                      sc_reader = Codec.frame_reader (Shm.Ring.source rx);
                      sc_bell = bell;
                      sc_cli_bell = cli_bell;
                      sc_tid = tid;
                      sc_window = Queue.create ();
                      sc_out = Buffer.create 64;
                      sc_pending_out = None;
                      sc_dying = false;
                      sc_zc = false;
                    }
                  in
                  srv.conns <- sc :: srv.conns)))
  | _ -> ()

let pump_listen srv =
  let b = Bytes.create 512 in
  let progress = ref false in
  let rec go () =
    match Unix.read srv.listen_rd b 0 512 with
    | 0 -> ()
    | n ->
        progress := true;
        Buffer.add_subbytes srv.acc_buf b 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  (* Split complete lines out of the accumulator. *)
  let s = Buffer.contents srv.acc_buf in
  (match String.rindex_opt s '\n' with
  | None -> ()
  | Some last ->
      Buffer.clear srv.acc_buf;
      Buffer.add_string srv.acc_buf
        (String.sub s (last + 1) (String.length s - last - 1));
      String.split_on_char '\n' (String.sub s 0 last)
      |> List.iter (fun line -> if line <> "" then attach_announced srv line));
  !progress

let mux_iter srv spin =
  (* Baseline for the idle check below, taken BEFORE this pass's
     pumping: a completion that lands mid-pass (after its connection's
     pump_out, before we announce the sleep) must fail [still_idle],
     because its [wake_mux] may have seen [mux_waiting] still false
     and skipped the self-pipe. *)
  let completions_before = Atomic.get srv.completions in
  let progress = ref false in
  if pump_listen srv then progress := true;
    let live, dead =
      List.partition
        (fun sc ->
          let p_in = pump_in srv sc in
          let p_out = pump_out srv sc in
          if p_in || p_out then begin
            progress := true;
            (* Freed request-ring space and fresh replies both matter
               to a waiting client. *)
            if Shm.Seg.client_waiting sc.sc_seg then
              Shm.Doorbell.ring sc.sc_cli_bell
          end;
          let closed_by_peer = not (Shm.Seg.is_open sc.sc_seg) in
          let drained =
            sc.sc_dying && Queue.is_empty sc.sc_window
            && sc.sc_pending_out = None
          in
          not (closed_by_peer || drained))
        srv.conns
    in
    srv.conns <- live;
    List.iter (fun sc -> kill_conn srv sc) dead;
    if !progress then spin := 0
    else begin
      incr spin;
      if !spin < 50 then Domain.cpu_relax ()
      else begin
        (* Announce sleep on every channel, re-check, then block. *)
        spin := 0;
        List.iter (fun sc -> Shm.Seg.set_server_waiting sc.sc_seg true) srv.conns;
        Atomic.set srv.mux_waiting true;
        let still_idle =
          (not (pump_listen srv))
          && List.for_all
               (fun sc ->
                 (match Shm.Ring.pending sc.sc_rx with
                 | `Empty -> true
                 | _ -> false)
                 && Shm.Seg.is_open sc.sc_seg)
               srv.conns
          && Atomic.get srv.completions = completions_before
        in
        if still_idle && Atomic.get srv.running then begin
          let fds =
            srv.pipe_rd :: srv.listen_rd
            :: List.map (fun sc -> Shm.Doorbell.fd_rd sc.sc_bell) srv.conns
          in
          match Unix.select fds [] [] 0.05 with
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        end;
        Atomic.set srv.mux_waiting false;
        List.iter
          (fun sc ->
            Shm.Seg.set_server_waiting sc.sc_seg false;
            Shm.Doorbell.drain sc.sc_bell)
          srv.conns;
        drain_fd srv.pipe_rd;
        (* Idle housekeeping: clear reservation slots whose announced
           pid no longer exists — a SIGKILLed zero-copy client never
           runs its own [leave], and without this its pinned era would
           gate handoff batches forever. *)
        match srv.svc.Shard.arena with
        | Some a -> ignore (Shmalloc.Arena.sweep_dead a)
        | None -> ()
      end
    end

let mux_loop srv () =
  let spin = ref 0 in
  let strikes = ref 0 in
  while Atomic.get srv.running do
    (* Nothing may kill the multiplexer domain: every connection hangs
       off it, and a stored exception would otherwise hide until the
       Domain.join in shutdown.  Per-connection damage is already
       absorbed inside the pumps; anything that still escapes is a
       daemon-level fault — report it, and give up serving only if it
       repeats without a single clean pass in between. *)
    match mux_iter srv spin with
    | () -> strikes := 0
    | exception e ->
        incr strikes;
        Printf.eprintf "shm mux: unexpected %s\n%!" (Printexc.to_string e);
        if !strikes >= 100 then Atomic.set srv.running false
  done;
  (* Teardown (on the multiplexer domain, so connection state has a
     single owner to the end): stamp every segment closed, wake and
     drop every client, release their tids. *)
  List.iter (fun sc -> kill_conn srv sc) srv.conns;
  srv.conns <- []

let serve svc ~path ?(faults = Conn.Faults.none) ?ext () =
  Conn.ignore_sigpipe ();
  claim_listen_path path;
  Unix.mkfifo path 0o600;
  let listen_rd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_NONBLOCK ] 0 in
  let listen_wr = Unix.openfile path [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 in
  let pipe_rd, pipe_wr = Unix.pipe () in
  Unix.set_nonblock pipe_rd;
  Unix.set_nonblock pipe_wr;
  let srv =
    {
      svc;
      path;
      listen_rd;
      listen_wr;
      pipe_rd;
      pipe_wr;
      running = Atomic.make true;
      mux_waiting = Atomic.make false;
      completions = Atomic.make 0;
      faults;
      ext;
      zc_slot = svc.Shard.zc_lease ();
      conns = [];
      acc_buf = Buffer.create 256;
      mux = None;
      stopped = Atomic.make false;
      tids = Atomic.make (List.init svc.Shard.clients Fun.id);
    }
  in
  srv.mux <- Some (Domain.spawn (mux_loop srv));
  srv

let shutdown srv =
  if Atomic.compare_and_set srv.stopped false true then begin
    Atomic.set srv.running false;
    (try ignore (Unix.write srv.pipe_wr (Bytes.make 1 '!') 0 1)
     with Unix.Unix_error _ -> ());
    (match srv.mux with
    | Some d ->
        Domain.join d;
        srv.mux <- None
    | None -> ());
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ srv.listen_rd; srv.listen_wr; srv.pipe_rd; srv.pipe_wr ];
    (match srv.zc_slot with
    | Some s -> srv.svc.Shard.zc_release s
    | None -> ());
    try Unix.unlink srv.path with Unix.Unix_error _ -> ()
  end

let faults srv = srv.faults
