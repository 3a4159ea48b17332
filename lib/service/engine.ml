(* The serving engine behind both server transports ([Conn.serve_unix]
   and [Shm_conn.serve]): one domain owns every connection, whatever
   its medium.

   A connection is a [session]: its request seqs, the reorder window
   that puts replies back in request order, the backpressure queue of
   requests a full mailbox refused, its producer tid, whether it
   negotiated by-reference replies, and whether it is dying.  Only the
   medium differs:

   - [Sock]: a nonblocking socket with in/out buffers and poll
     interest, driven by readiness events;
   - [Ring]: a shared-memory segment (two SPSC rings, two doorbells)
     plus one encoded reply the full outbound ring refused, pumped on
     every pass with no syscall.

   Both media share one dispatch, one completion path (a lock-free
   stack plus a wake pipe, written only when the engine is about to
   block), one loop and one exception barrier.  The paper's
   transparency is what lets one domain do this: a reader joins
   reclamation by entering a bracket, so the engine can hold one
   leased zero-copy slot and answer GETs for every connection
   ([Shard.read_inline]).

   The edges (the unix socket in [Conn], the listen FIFO in
   [Shm_conn]) only accept or attach connections and give back what
   they leased when one closes. *)

(* Chaos injection points on the reply and read paths.  The disabled
   state is the distinguished [none] instance, checked by physical
   equality before anything else — the same zero-cost-when-off
   discipline as [Obs.Probe.is_noop]. *)
module Faults = struct
  type t = {
    truncate_replies : int Atomic.t;
    close_mid_frame : int Atomic.t;
    delayed_reads : int Atomic.t;
    delay_s : float;
  }

  let create ?(delay_s = 0.002) () =
    {
      truncate_replies = Atomic.make 0;
      close_mid_frame = Atomic.make 0;
      delayed_reads = Atomic.make 0;
      delay_s;
    }

  let none = create ()
  let is_none t = t == none

  let arm counter n =
    if n < 0 then invalid_arg "Conn.Faults.arm: n < 0";
    ignore (Atomic.fetch_and_add counter n)

  let arm_truncate_reply t n = arm t.truncate_replies n
  let arm_close_mid_frame t n = arm t.close_mid_frame n
  let arm_delayed_read t n = arm t.delayed_reads n

  (* Claim one armed unit, resolving races between servers. *)
  let rec take counter =
    let n = Atomic.get counter in
    if n <= 0 then false
    else if Atomic.compare_and_set counter n (n - 1) then true
    else take counter
end

type sock = {
  fd : Unix.file_descr;
  mutable buf : bytes;  (* request bytes accumulated, [pos, len) *)
  mutable len : int;
  mutable pos : int;
  mutable obuf : bytes;  (* encoded replies not yet on the wire *)
  mutable obeg : int;
  mutable oend : int;
  mutable want_write : bool;
}

type ring = {
  seg : Shm.Seg.t;
  rx : Shm.Ring.t;  (* c2s: the engine reads *)
  tx : Shm.Ring.t;  (* s2c: the engine writes *)
  bell : Shm.Doorbell.t;  (* the engine sleeps here; the client rings *)
  cli_bell : Shm.Doorbell.t;  (* the client sleeps there *)
  mutable parked : bytes option;  (* refused by the full [tx]; sent first *)
  mutable seen : int;  (* [next_seq + flush_seq] when the client was last woken *)
}

type medium = Sock of sock | Ring of ring

type session = {
  medium : medium;
  tid : int;  (* producer tid every request of this connection goes under *)
  mutable rd : Codec.reader;  (* frame decoder over the medium's input *)
  mutable next_seq : int;  (* request seqs assigned on this connection *)
  mutable flush_seq : int;  (* next seq whose reply goes out *)
  window : (int, Codec.reply) Hashtbl.t;  (* completed out of order *)
  pending : (int * Codec.request) Queue.t;
      (* parsed but refused by a full mailbox; retried head first *)
  mutable zc : bool;  (* negotiated by-reference GET replies ([A_info]) *)
  mutable dying : bool;  (* takes no more requests; closes once answered *)
  mutable hard : bool;  (* a damaged reply went out: close once it drains *)
  mutable reading : bool;  (* below the backlog watermarks *)
  mutable delay_until : float;  (* injected fault: a slow peer *)
  mutable dead : bool;
}

type t = {
  svc : Shard.t;
  poll : Poller.t;
  listen : Unix.file_descr;  (* the edge's accept point, closed at teardown *)
  on_listen : t -> unit;  (* the edge: accept or attach what is waiting *)
  release : session -> unit;  (* the edge: give back what a session leased *)
  conns : (int, session) Hashtbl.t;  (* polled fd -> session; engine only *)
  mutable rings : (session * ring) list;  (* pumped on every pass *)
  exec : Codec.request -> Codec.reply option;  (* ext; [None] = route *)
  defer : Codec.request -> bool;  (* ext requests for the worker domain *)
  zc_slot : int option;  (* the zero-copy slot inline GETs read under *)
  arena : Shmalloc.Arena.t option;
      (* the arena whose references this edge's peers can map: GETs of
         a connection that negotiated it are answered by [Val_ref] *)
  faults : Faults.t;
  completions : (session * int * Codec.reply) list Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  wake_armed : bool Atomic.t;  (* set only around a blocking wait *)
  stop : bool Atomic.t;
  stopped : bool Atomic.t;
  mutable has_pending : bool;  (* some session holds refused requests *)
  mutable spin : int;  (* idle passes since the last progress *)
  scratch : Buffer.t;  (* reply encode staging *)
  work : (session * int * Codec.request) Queue.t;  (* deferred ext *)
  work_lock : Mutex.t;
  work_cond : Condition.t;
  mutable domains : unit Domain.t list;
}

(* Backlog watermarks.  Past [inflight_high] requests read but not yet
   answered, or [out_high] reply bytes a socket has not taken, the
   engine stops reading the connection — the socket buffer or the
   request ring then pushes back on the peer — and resumes below the
   low marks.  One misbehaving connection degrades only itself. *)
let inflight_high = 1024
let inflight_low = 256
let out_high = 256 * 1024
let out_low = 64 * 1024

(* Idle passes that still poll with a zero timeout while ring
   connections exist, before the engine publishes its waiting flags
   and blocks: a ring peer's next request usually lands within them. *)
let spin_limit = 50

let out_backlog s =
  match s.medium with Sock k -> k.oend - k.obeg | Ring _ -> 0

let drained s =
  match s.medium with Sock k -> k.obeg = k.oend | Ring r -> r.parked = None

let wants_read s =
  let inflight = s.next_seq - s.flush_seq and out = out_backlog s in
  (not s.dying)
  &&
  if s.reading then inflight <= inflight_high && out <= out_high
  else inflight < inflight_low && out < out_low

let ring_fd r = Shm.Doorbell.fd_rd r.bell

let close srv s =
  if not s.dead then begin
    s.dead <- true;
    match s.medium with
    | Sock k ->
        Poller.remove srv.poll k.fd;
        Hashtbl.remove srv.conns (Poller.fd_int k.fd);
        (try Unix.close k.fd with Unix.Unix_error _ -> ())
    | Ring r ->
        Poller.remove srv.poll (ring_fd r);
        Hashtbl.remove srv.conns (Poller.fd_int (ring_fd r));
        srv.rings <- List.filter (fun (x, _) -> x != s) srv.rings;
        srv.release s;
        Shm.Seg.mark_closed r.seg;
        (* Wake a client blocked on its doorbell so it sees the close. *)
        Shm.Doorbell.ring r.cli_bell;
        Shm.Doorbell.close r.cli_bell;
        Shm.Doorbell.close r.bell;
        Shm.Seg.detach r.seg;
        Shm.Seg.unlink r.seg
  end

(* Close once nothing is left to say: a damaged reply has drained, or
   a dying connection has every reply out. *)
let settle srv s =
  if
    (not s.dead) && drained s
    && (s.hard || (s.dying && s.flush_seq = s.next_seq))
  then close srv s

let refresh srv s =
  if not s.dead then begin
    s.reading <- wants_read s;
    match s.medium with
    | Sock k -> Poller.modify srv.poll k.fd ~read:s.reading ~write:k.want_write
    | Ring _ -> ()
  end

(* Write as much of a socket's out buffer as it takes now; EAGAIN
   registers write interest.  Any hard error costs this connection. *)
let rec flush srv s k =
  if (not s.dead) && k.oend > k.obeg then begin
    match Unix.write k.fd k.obuf k.obeg (k.oend - k.obeg) with
    | 0 -> close srv s
    | n ->
        k.obeg <- k.obeg + n;
        if k.obeg < k.oend then flush srv s k
        else begin
          k.obeg <- 0;
          k.oend <- 0;
          k.want_write <- false;
          refresh srv s;
          settle srv s
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if not k.want_write then begin
          k.want_write <- true;
          refresh srv s
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush srv s k
    | exception Unix.Unix_error _ -> close srv s
  end
  else settle srv s

let append_out k b len =
  let live = k.oend - k.obeg in
  if k.oend + len > Bytes.length k.obuf then begin
    let nb =
      if live + len <= Bytes.length k.obuf then k.obuf
      else Bytes.create (max (2 * Bytes.length k.obuf) (live + len + 4096))
    in
    Bytes.blit k.obuf k.obeg nb 0 live;
    k.obuf <- nb;
    k.obeg <- 0;
    k.oend <- live
  end;
  Bytes.blit b 0 k.obuf k.oend len;
  k.oend <- k.oend + len

let ring_send r b = Shm.Ring.try_send r.tx b ~pos:0 ~len:(Bytes.length b)

(* Move every now-contiguous reply out of the reorder window, in
   request order, so a connection's reply trace is the one a lockstep
   client would see.  The engine picks which armed reply fault a frame
   takes; the medium only applies it — a socket cuts the bytes (after
   the length prefix, or halfway through the payload), a ring damages
   its commit stamp or publishes a half-written frame.  Either way the
   client reads a torn reply and the connection closes once it is
   out. *)
let emit srv s =
  let sent = ref false in
  let continue = ref true in
  while !continue && (not s.dead) && not s.hard do
    match (Hashtbl.find_opt s.window s.flush_seq, s.medium) with
    | None, _ | _, Ring { parked = Some _; _ } -> continue := false
    | Some reply, medium -> (
        Hashtbl.remove s.window s.flush_seq;
        s.flush_seq <- s.flush_seq + 1;
        sent := true;
        Buffer.clear srv.scratch;
        Codec.encode_reply srv.scratch reply;
        let b = Buffer.to_bytes srv.scratch in
        let f = srv.faults in
        let fault =
          if Faults.is_none f then `Clean
          else if Faults.take f.close_mid_frame then `Prefix
          else if Faults.take f.truncate_replies then `Half
          else `Clean
        in
        if fault <> `Clean then s.hard <- true;
        match medium with
        | Sock k ->
            append_out k b
              (match fault with
              | `Clean -> Bytes.length b
              | `Prefix -> min 4 (Bytes.length b)
              | `Half -> min (Bytes.length b) (4 + ((Bytes.length b - 4) / 2)))
        | Ring r ->
            (match fault with
            | `Clean -> ()
            | `Prefix -> Shm.Ring.arm_torn_stamp r.tx 1
            | `Half -> Shm.Ring.arm_truncate r.tx 1);
            (* Full ring: park the frame; it goes out before any later
               reply (and takes the armed damage with it). *)
            if not (ring_send r b) then r.parked <- Some b)
  done;
  if !sent then begin
    (match s.medium with Sock k -> flush srv s k | Ring _ -> ());
    refresh srv s;
    settle srv s
  end

let complete srv s seq reply =
  if not s.dead then begin
    Hashtbl.replace s.window seq reply;
    if seq = s.flush_seq then emit srv s
  end

let enqueue_completion srv s seq reply =
  let rec push () =
    let old = Atomic.get srv.completions in
    if not (Atomic.compare_and_set srv.completions old ((s, seq, reply) :: old))
    then push ()
  in
  push ();
  (* Wake the engine iff it is about to block: [exchange] claims the
     armed flag, so concurrent completers write one byte, not one
     each. *)
  if Atomic.exchange srv.wake_armed false then
    try ignore (Unix.write srv.wake_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

(* Run the ext handler, never letting its exception reach the engine:
   an ext that raises costs its request an [Error] reply, not every
   connection. *)
let exec_ext srv req =
  match srv.exec req with
  | r -> r
  | exception e -> Some (Codec.Error ("ext: " ^ Printexc.to_string e))

(* Feed a session's pending queue into the shard mailboxes, oldest
   first, stopping at the first refusal.  A full mailbox is not an
   overload signal — every producer shares a shard's mailbox — so the
   request is held and retried in arrival order, never answered
   [Shed]; the medium carries the backpressure to the peer.
   [Shard.submit] calls back with [Shed] only synchronously (consumers
   never produce it), so reading the flag after the call is race-free.

   The ext handler is consulted again for every request popped here:
   a request can wait here for an unbounded time, and the verdict that
   let it fall through at dispatch may have flipped meanwhile (a
   cluster slot frozen by a migration cutover must answer [Moved], not
   commit at the old owner).  The authoritative gate is still the
   consumer's admission filter ([Shard.admit]); handlers must be
   effect-free on requests they decline. *)
let submit_pending srv s =
  let continue = ref true in
  while !continue && (not s.dead) && not (Queue.is_empty s.pending) do
    let seq, req = Queue.peek s.pending in
    match exec_ext srv req with
    | Some r ->
        ignore (Queue.pop s.pending);
        complete srv s seq r
    | None ->
        let shed = ref false in
        srv.svc.Shard.submit ~tid:s.tid req (function
          | Codec.Shed -> shed := true
          | r -> enqueue_completion srv s seq r);
        if !shed then begin
          srv.has_pending <- true;
          continue := false
        end
        else ignore (Queue.pop s.pending)
  done

(* A GET answered on the engine from committed state, without the
   mailbox — only with nothing earlier outstanding on the connection,
   so replies keep their order and a GET sees the connection's own
   writes.  On an arena the map holds packed references, so only a
   connection that negotiated by-reference replies is answered here:
   the [Val_ref] is minted from one atomic map load, so the frame can
   never pair a fresh stamp with a stale block. *)
let inline_get srv s seq key =
  match srv.zc_slot with
  | Some slot
    when seq = s.flush_seq
         && Queue.is_empty s.pending
         && (srv.arena = None || s.zc) -> (
      match (Shard.read_inline srv.svc ~slot key, srv.arena) with
      | None, _ -> None
      | Some None, _ -> Some Codec.Not_found
      | Some (Some v), None -> Some (Codec.Value v)
      | Some (Some r), Some a ->
          Some
            (Codec.Val_ref
               {
                 cls = Shmalloc.Arena.Ref.cls r;
                 off = Shmalloc.Arena.off_of_ref a r;
                 len = Shmalloc.Arena.Ref.len r;
                 gen = Shmalloc.Arena.Ref.gen r;
               }))
  | _ -> None

(* One dispatch for every medium:
   1. a malformed request gets an [Error] reply, then the connection
      closes (the stream position cannot be trusted);
   2. ext answers first — unbounded-work requests it classifies
      ([defer]) on the worker domain, the rest inline;
   3. on an arena, [A_info] assigns the connection's tid as its
      reservation slot and turns on by-reference GET replies;
   4. a GET is answered inline when [inline_get] can;
   5. everything else is queued and submitted. *)
let dispatch srv s payload =
  let seq = s.next_seq in
  s.next_seq <- seq + 1;
  match Codec.request_of_payload payload with
  | exception Codec.Malformed m ->
      s.dying <- true;
      complete srv s seq (Codec.Error ("malformed: " ^ m))
  | req when srv.defer req ->
      Mutex.lock srv.work_lock;
      Queue.push (s, seq, req) srv.work;
      Condition.signal srv.work_cond;
      Mutex.unlock srv.work_lock
  | req -> (
      match exec_ext srv req with
      | Some r -> complete srv s seq r
      | None -> (
          let direct =
            match (req, srv.arena) with
            | Codec.A_info, Some a ->
                s.zc <- true;
                Some
                  (Codec.Arena_info
                     {
                       slot = s.tid;
                       gen = Shmalloc.Arena.generation a;
                       size = Shmalloc.Arena.size_bytes a;
                     })
            | Codec.Get key, _ -> inline_get srv s seq key
            | _ -> None
          in
          match direct with
          | Some r -> complete srv s seq r
          | None ->
              Queue.push (seq, req) s.pending;
              submit_pending srv s))

(* The deferred-ext worker: one domain draining [work] in order (FIFO
   keeps one client's control ops serialized), completing through the
   same stack as the shard consumers. *)
let ext_worker srv () =
  let rec next () =
    Mutex.lock srv.work_lock;
    while (not (Atomic.get srv.stop)) && Queue.is_empty srv.work do
      Condition.wait srv.work_cond srv.work_lock
    done;
    let item = if Atomic.get srv.stop then None else Queue.take_opt srv.work in
    Mutex.unlock srv.work_lock;
    match item with
    | None -> ()
    | Some (s, seq, req) ->
        let reply =
          match exec_ext srv req with
          | Some r -> r
          | None -> Codec.Error "ext: deferred request not handled"
        in
        enqueue_completion srv s seq reply;
        next ()
  in
  next ()

(* A delayed-read fault holds back only its own connection: the engine
   keeps serving every other one until [delay_until]. *)
let delayed srv s =
  (not (Faults.is_none srv.faults))
  &&
  let now = Unix.gettimeofday () in
  if s.delay_until <= now && Faults.take srv.faults.delayed_reads then
    s.delay_until <- now +. srv.faults.delay_s;
  s.delay_until > now

(* Dispatch every complete frame buffered on a socket.  [next_frame]
   is only entered once the prefix and the whole payload are in
   [buf], so its pull source never starves mid-frame. *)
let parse srv s k =
  let continue = ref true in
  while !continue && (not s.dead) && not s.dying do
    let avail = k.len - k.pos in
    if avail < 4 then continue := false
    else
      let len = Int32.to_int (Bytes.get_int32_be k.buf k.pos) in
      if len < 0 || len > Codec.max_frame then begin
        (* Framing is gone; answer what came before, then close. *)
        s.dying <- true;
        refresh srv s;
        settle srv s
      end
      else if avail < 4 + len then continue := false
      else
        match Codec.next_frame s.rd with
        | Codec.Frame payload -> dispatch srv s payload
        | Codec.Eof | Codec.Torn _ | (exception Codec.Malformed _) ->
            close srv s
  done

let sock_read srv s k =
  (* Compact, and grow for a frame larger than the buffer. *)
  if k.pos > 0 then begin
    Bytes.blit k.buf k.pos k.buf 0 (k.len - k.pos);
    k.len <- k.len - k.pos;
    k.pos <- 0
  end;
  if k.len = Bytes.length k.buf && k.len < 4 + Codec.max_frame then begin
    let nb = Bytes.create (min (2 * k.len) (4 + Codec.max_frame)) in
    Bytes.blit k.buf 0 nb 0 k.len;
    k.buf <- nb
  end;
  match Unix.read k.fd k.buf k.len (Bytes.length k.buf - k.len) with
  | 0 when k.len < Bytes.length k.buf ->
      (* The peer finished sending: answer everything it sent. *)
      parse srv s k;
      s.dying <- true;
      refresh srv s;
      settle srv s
  | n ->
      k.len <- k.len + n;
      parse srv s k
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> parse srv s k
  | exception Unix.Unix_error _ -> close srv s

(* Dispatch request frames off a request ring while the backlog allows.
   Damage is reported by the ring, never decoded: a torn frame, or a
   correctly stamped one over the codec limit (any same-uid ring writer
   can craft one), costs the connection, not the engine. *)
let ring_read srv s r =
  let continue = ref true in
  while
    !continue && (not s.dead)
    && begin
         refresh srv s;
         s.reading
       end
  do
    match Shm.Ring.pending r.rx with
    | `Empty -> continue := false
    | `Torn _ -> s.dying <- true
    | `Msg plen when plen > Codec.max_frame -> s.dying <- true
    | `Msg _ -> (
        if delayed srv s then continue := false
        else
          match Codec.next_frame s.rd with
          | Codec.Frame payload ->
              Shm.Ring.finish_msg r.rx;
              dispatch srv s payload
          | Codec.Eof | Codec.Torn _ | (exception Codec.Malformed _) ->
              s.dying <- true)
  done;
  settle srv s

(* One pass over a ring connection; [true] on any progress since the
   last one.  Replies emitted earlier in the pass (completions) count
   too: the client is woken once per pass, if it sleeps, for every
   reply sent and every request taken off its ring. *)
let pump_ring srv s r =
  if not (Shm.Seg.is_open r.seg) then (close srv s; true)
  else begin
    (match r.parked with
    | Some b when ring_send r b ->
        r.parked <- None;
        r.seen <- -1;
        emit srv s;
        settle srv s
    | _ -> ());
    ring_read srv s r;
    let seen = s.next_seq + s.flush_seq in
    s.dead
    || seen <> r.seen
       && begin
         r.seen <- seen;
         if Shm.Seg.client_waiting r.seg then Shm.Doorbell.ring r.cli_bell;
         true
       end
  end

let add srv s fd =
  Hashtbl.replace srv.conns (Poller.fd_int fd) s;
  Poller.add srv.poll fd ~read:true ~write:false

let session medium ~tid =
  {
    medium;
    tid;
    rd = Codec.frame_reader (fun _ _ _ -> 0);
    next_seq = 0;
    flush_seq = 0;
    window = Hashtbl.create 8;
    pending = Queue.create ();
    zc = false;
    dying = false;
    hard = false;
    reading = true;
    delay_until = 0.0;
    dead = false;
  }

(* A socket connection.  The decoder's pull source is the session's
   own buffer window; [parse] only pulls when a whole frame is there. *)
let add_sock srv fd =
  Unix.set_nonblock fd;
  let k =
    {
      fd;
      buf = Bytes.create 4096;
      len = 0;
      pos = 0;
      obuf = Bytes.create 4096;
      obeg = 0;
      oend = 0;
      want_write = false;
    }
  in
  let s = session (Sock k) ~tid:0 in
  s.rd <-
    Codec.frame_reader (fun b off len ->
        let n = min len (k.len - k.pos) in
        Bytes.blit k.buf k.pos b off n;
        k.pos <- k.pos + n;
        n);
  add srv s fd

(* A ring connection over an attached segment, under its leased tid.
   Its doorbell's read end joins the poller, so a blocked engine wakes
   when the client rings.  Opening it is the one step that can fail
   (the client removed its FIFO); it comes first, so a failure leaves
   the engine untouched. *)
let add_ring srv ~tid seg =
  let r =
    {
      seg;
      rx = Shm.Seg.c2s_ring seg;
      tx = Shm.Seg.s2c_ring seg;
      bell = Shm.Doorbell.attach ~path:(Shm.Seg.srv_bell seg);
      cli_bell = Shm.Doorbell.attach ~path:(Shm.Seg.cli_bell seg);
      parked = None;
      seen = 0;
    }
  in
  let fd = ring_fd r in
  let s = session (Ring r) ~tid in
  s.rd <- Codec.frame_reader (Shm.Ring.source r.rx);
  srv.rings <- (s, r) :: srv.rings;
  add srv s fd

let drain_completions srv =
  match Atomic.get srv.completions with
  | [] -> false
  | _ ->
      let batch = Atomic.exchange srv.completions [] in
      (* Newest first; the reorder window restores each connection's
         order, so this only affects fairness. *)
      List.iter (fun (s, seq, reply) -> complete srv s seq reply) batch;
      true

(* Work that a blocked engine would sleep through: a completion, or a
   readable (or closed) ring. *)
let ready srv =
  Atomic.get srv.completions != []
  || List.exists
       (fun (s, r) ->
         (not (Shm.Seg.is_open r.seg))
         || wants_read s
            && s.delay_until <= Unix.gettimeofday ()
            && match Shm.Ring.pending r.rx with `Empty -> false | _ -> true)
       srv.rings

let set_waiting srv b =
  List.iter (fun (_, r) -> Shm.Seg.set_server_waiting r.seg b) srv.rings

let on_ready srv drain fd ~readable ~writable =
  let raw = Poller.fd_int fd in
  if raw = Poller.fd_int srv.listen then srv.on_listen srv
  else if raw = Poller.fd_int srv.wake_r then
    try ignore (Unix.read srv.wake_r drain 0 (Bytes.length drain))
    with Unix.Unix_error _ -> ()
  else
    match Hashtbl.find_opt srv.conns raw with
    | Some ({ medium = Sock k; _ } as s) ->
        if writable then flush srv s k;
        (* A delayed connection leaves its bytes in the kernel buffer;
           level-triggered polling revisits it. *)
        if readable && (not s.dead) && not (delayed srv s) then sock_read srv s k
    | Some ({ medium = Ring r; _ } as s) -> (
        (* A live client holds its doorbell's write end from its first
           ring until it stamps the segment closed.  End of file means
           it died holding the segment open: nothing will ring again,
           and the poller would report the bell readable forever. *)
        match Unix.read (ring_fd r) drain 0 (Bytes.length drain) with
        | 0 -> close srv s
        | _ -> Shm.Doorbell.drain r.bell
        | exception Unix.Unix_error _ -> ())
    | None -> ()

(* One pass: drain completions, retry refused requests, pump every
   ring, then exactly one [Poller.wait].  The wait polls (timeout 0)
   after progress and while ring connections spin; otherwise the engine
   publishes each ring's waiting flag and arms the wake pipe, checks
   once more for work (a peer that published before seeing a flag is
   caught here, one that published after rings), and blocks.  A server
   with no ring connection blocks at once. *)
let pass srv on_ready =
  let busy = drain_completions srv in
  if srv.has_pending then begin
    (* A drained completion means a consumer took envelopes off a
       mailbox — the moment refused requests are worth retrying. *)
    srv.has_pending <- false;
    Hashtbl.fold
      (fun _ s held -> if Queue.is_empty s.pending then held else s :: held)
      srv.conns []
    |> List.iter (fun s ->
           submit_pending srv s;
           refresh srv s)
  end;
  let busy =
    List.fold_left (fun busy (s, r) -> pump_ring srv s r || busy) busy srv.rings
  in
  let block =
    srv.rings = []
    || (not busy)
       && begin
         srv.spin <- srv.spin + 1;
         srv.spin > spin_limit
       end
  in
  if block then begin
    set_waiting srv true;
    Atomic.set srv.wake_armed true
  end;
  let timeout_ms =
    if (not block) || ready srv then 0
    else if srv.has_pending then 1
    else if not (Faults.is_none srv.faults) then 2
    else 50
  in
  let n = Poller.wait srv.poll ~timeout_ms on_ready in
  if block then begin
    Atomic.set srv.wake_armed false;
    set_waiting srv false;
    (* Idle housekeeping: clear reservation slots whose announced pid
       is gone — a SIGKILLed zero-copy client never runs its own
       [leave], and its pinned era would gate handoff batches. *)
    Option.iter (fun a -> ignore (Shmalloc.Arena.sweep_dead a)) srv.arena
  end;
  if busy || n > 0 then srv.spin <- 0

let loop srv () =
  let on_ready = on_ready srv (Bytes.create 64) in
  (* Exception barrier: no pass may kill the engine silently — the
     daemon would serve nothing while looking alive.  Per-connection
     damage is contained before it gets here; a faulting pass is
     reported and the loop goes on, and only a persistent fault (100
     failing passes in a row) stops the server, loudly. *)
  let strikes = ref 0 in
  while not (Atomic.get srv.stop) do
    match pass srv on_ready with
    | () -> strikes := 0
    | exception e ->
        incr strikes;
        Printf.eprintf "kv engine: pass failed: %s\n%!" (Printexc.to_string e);
        if !strikes >= 100 then begin
          Printf.eprintf
            "kv engine: %d consecutive failing passes; stopping the server\n%!"
            !strikes;
          Atomic.set srv.stop true
        end
  done;
  (* Teardown on the engine domain, the single owner of every
     connection: ring peers see their segments closed. *)
  Hashtbl.iter (fun _ s -> close srv s) (Hashtbl.copy srv.conns);
  Poller.close srv.poll;
  try Unix.close srv.listen with Unix.Unix_error _ -> ()

let start svc ~poller ~listen ~on_listen ?(release = ignore) ~faults ?ext
    ?ext_defer ~zc_slot ~arena () =
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let srv =
    {
      svc;
      poll = Poller.create poller;
      listen;
      on_listen;
      release;
      conns = Hashtbl.create 64;
      rings = [];
      exec = Option.value ext ~default:(fun _ -> None);
      defer = Option.value ext_defer ~default:(fun _ -> false);
      zc_slot;
      arena;
      faults;
      completions = Atomic.make [];
      wake_r;
      wake_w;
      wake_armed = Atomic.make false;
      stop = Atomic.make false;
      stopped = Atomic.make false;
      has_pending = false;
      spin = 0;
      scratch = Buffer.create 64;
      work = Queue.create ();
      work_lock = Mutex.create ();
      work_cond = Condition.create ();
      domains = [];
    }
  in
  Poller.add srv.poll listen ~read:true ~write:false;
  Poller.add srv.poll wake_r ~read:true ~write:false;
  srv.domains <-
    Domain.spawn (loop srv)
    :: (match ext_defer with
       | Some _ -> [ Domain.spawn (ext_worker srv) ]
       | None -> []);
  srv

(* Stop the loop and the worker, join them, and return the zero-copy
   slot.  [true] only for the call that stopped it, so the edge can
   release its own resources exactly once.  The wake pipe closes here,
   after the join: the loop may still be blocked on it until then. *)
let stop srv =
  Atomic.compare_and_set srv.stopped false true
  && begin
       Atomic.set srv.stop true;
       (try ignore (Unix.write srv.wake_w (Bytes.make 1 '!') 0 1)
        with Unix.Unix_error _ -> ());
       (* Wake the worker under its lock, so the stop flag is seen by
          the wait it interrupts. *)
       Mutex.lock srv.work_lock;
       Condition.broadcast srv.work_cond;
       Mutex.unlock srv.work_lock;
       List.iter Domain.join srv.domains;
       List.iter
         (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
         [ srv.wake_r; srv.wake_w ];
       Option.iter srv.svc.Shard.zc_release srv.zc_slot;
       true
     end
