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

   The daemon side is the ring edge of the serving engine that also
   serves the unix socket ([Engine]): one domain holds every
   connection, socket or ring, with one dispatch, one reorder window
   per connection and one completion path.  A ring connection is
   pumped on every busy pass with no syscall — requests and replies
   move purely through shared memory, and the pass's one syscall is
   the zero-timeout poll that also watches the listen FIFO.  This
   module keeps what is particular to rings: the listen FIFO and its
   announce lines, segment validation, the stale-file sweep, and a
   producer tid leased per connection (it doubles as the arena
   reservation slot).

   Sleep/wake is the doorbell protocol at both ends, nested so no
   wakeup is lost: each sleeper publishes a waiting flag (in the
   segment header), re-checks its ready condition, then blocks — the
   client on its doorbell FIFO, the engine in its poller, where every
   connection's doorbell is registered; each waker publishes its data
   first and rings only if it then observes the flag. *)

exception Unavailable of string

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
   zero-syscall fast path when the engine is busy. *)
let nudge_server c =
  if Shm.Seg.server_waiting c.seg then Shm.Doorbell.ring c.srv_bell

(* How long a blocked client spins before sleeping on its doorbell,
   polling for the reply on every relax.  With spare cores, spinning
   rides out the daemon's reply latency without a sleep/wake round
   trip ({!Shm.Doorbell.default_spin}, 200,672 relaxes).  On a box
   with no spare core a long spin is actively harmful — a spinning
   client burns the very timeslice the engine and shard consumers need
   to produce the reply — so the budget is 4 rounds, 480 relaxes
   (about 18 us on a 2-vCPU x86 host), long enough to catch an inline
   GET's reply and short enough to yield soon after (the FIFO wakeup
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
(* Server: the ring edge of the serving engine ([Engine]).  It owns
   the listen FIFO, validates announced segments, leases each
   connection a producer tid, and gives the tid back when the engine
   closes the connection. *)

type server = { eng : Engine.t; path : string; listen_wr : Unix.file_descr }

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
    | exception Unix.Unix_error _ ->
        (* ENXIO, or not a FIFO at all: stale. *)
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        sweep_stale_segments path
  end

(* Only names our own connecting clients generate — the listen path
   plus the ".seg." infix and a slash-free suffix (the same predicate
   [sweep_stale_segments] uses).  Anything else in an announce line is
   ignored outright: the FIFO is same-uid writable, and acting on an
   arbitrary path would let any local writer direct the daemon to mmap
   or unlink files it has no business touching. *)
let valid_seg_path path seg_path =
  let prefix = path ^ ".seg." in
  let plen = String.length prefix in
  String.length seg_path > plen
  && String.sub seg_path 0 plen = prefix
  && not
       (String.contains
          (String.sub seg_path plen (String.length seg_path - plen))
          '/')

(* Attach an announced segment, validating the generation against its
   header, and hand it to the engine under a leased tid.  With every
   client slot leased, the connection gets one [Shed] reply and is
   closed — connection-level backpressure, as on the socket path. *)
let attach_announced ~path ~tids eng line =
  match String.split_on_char ' ' (String.trim line) with
  | [ seg_path; gen_s ] when valid_seg_path path seg_path -> (
      match
        Option.map
          (fun gen -> Shm.Seg.attach ~path:seg_path ~expect_gen:gen ())
          (int_of_string_opt gen_s)
      with
      | exception (Shm.Seg.Bad_segment _ | Unix.Unix_error _) ->
          Shm.Seg.unlink_path seg_path
      | None -> Shm.Seg.unlink_path seg_path
      | Some seg -> (
          match !tids with
          | tid :: rest -> (
              match Engine.add_ring eng ~tid seg with
              | () -> tids := rest
              | exception Unix.Unix_error _ ->
                  (* Its doorbell is gone: nobody to converse with. *)
                  Shm.Seg.detach seg;
                  Shm.Seg.unlink seg)
          | [] ->
              let out = Buffer.create 8 in
              Codec.encode_reply out Codec.Shed;
              let b = Buffer.to_bytes out in
              let tx = Shm.Seg.s2c_ring seg in
              ignore (Shm.Ring.try_send tx b ~pos:0 ~len:(Bytes.length b));
              Shm.Seg.mark_closed seg;
              let cli_bell = Shm.Doorbell.attach ~path:(Shm.Seg.cli_bell seg) in
              Shm.Doorbell.ring cli_bell;
              Shm.Doorbell.close cli_bell;
              Shm.Seg.detach seg;
              Shm.Seg.unlink seg))
  | _ -> ()

(* Split complete announce lines out of the listen FIFO. *)
let pump_listen ~path ~tids ~listen_rd acc eng =
  let b = Bytes.create 512 in
  let rec go () =
    match Unix.read listen_rd b 0 512 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes acc b 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ();
  let s = Buffer.contents acc in
  match String.rindex_opt s '\n' with
  | None -> ()
  | Some last ->
      Buffer.clear acc;
      Buffer.add_string acc (String.sub s (last + 1) (String.length s - last - 1));
      String.split_on_char '\n' (String.sub s 0 last)
      |> List.iter (fun line ->
             if line <> "" then attach_announced ~path ~tids eng line)

let serve svc ~path ?(faults = Conn.Faults.none) ?ext () =
  Conn.ignore_sigpipe ();
  claim_listen_path path;
  Unix.mkfifo path 0o600;
  let listen_rd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_NONBLOCK ] 0 in
  (* Holding our own write end keeps the FIFO's writer count nonzero,
     so the read end polls readable only when a client announces,
     never as a permanent EOF. *)
  let listen_wr = Unix.openfile path [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 in
  (* Free producer tids, leased per connection (transparent
     attach/detach).  Only the engine domain touches the pool. *)
  let tids = ref (List.init svc.Shard.clients Fun.id) in
  let release (s : Engine.session) =
    (* The tid doubles as the connection's arena reservation slot; a
       client that died inside its bracket (or mid-hold) leaves an era
       and possibly a handed batch list pinned there.  Force-clear it
       on the dead client's behalf before the slot is leased again. *)
    Option.iter
      (fun a ->
        try Shmalloc.Arena.sweep_slot a ~slot:s.tid
        with Shmalloc.Arena.Bad_arena _ -> ())
      svc.Shard.arena;
    tids := s.tid :: !tids
  in
  let eng =
    Engine.start svc ~poller:`Auto ~listen:listen_rd
      ~on_listen:(pump_listen ~path ~tids ~listen_rd (Buffer.create 256))
      ~release ~faults ?ext ~zc_slot:(svc.Shard.zc_lease ())
      ~arena:svc.Shard.arena ()
  in
  { eng; path; listen_wr }

let shutdown srv =
  if Engine.stop srv.eng then begin
    (try Unix.close srv.listen_wr with Unix.Unix_error _ -> ());
    try Unix.unlink srv.path with Unix.Unix_error _ -> ()
  end

let faults srv = srv.eng.Engine.faults
