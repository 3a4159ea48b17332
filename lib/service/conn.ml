exception Closed

(* A signal landing mid-syscall must not surface as a connection
   error: retry the call.  (The daemon installs handlers for
   SIGINT/SIGTERM, and chaos runs deliver churn while signals fly.) *)
let rec read_retry fd buf off len =
  try Unix.read fd buf off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf off len

let rec write_retry fd buf off len =
  try Unix.write fd buf off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> write_retry fd buf off len

(* A client vanishing mid-reply must cost its connection, never the
   daemon: with SIGPIPE ignored, writes to a hung-up peer fail with
   EPIPE, which the event loop already treats as that connection's
   disconnect.  Idempotent; no-op where SIGPIPE does not exist. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* All frame reading goes through the one streaming decoder in Codec —
   the same loop that replays WAL segments and drains shm rings — with
   the descriptor as the pull source.  A torn frame here is a peer
   hanging up mid-frame. *)
let read_next rd =
  match Codec.next_frame rd with
  | Codec.Frame payload -> Some payload
  | Codec.Eof -> None
  | Codec.Torn _ -> raise Closed

let reader_of_fd fd = Codec.frame_reader (read_retry fd)
let read_frame fd = read_next (reader_of_fd fd)

(* The buffer is snapshotted and cleared {e before} the first write,
   not after the last: the caller's reply buffer must be clean on
   every exit — return, [Closed] on a zero-length write, EPIPE from a
   vanished peer, an injected fault — or the next [Codec.encode_reply]
   on that buffer would prepend the stale reply bytes.  Clearing
   eagerly makes that invariant structural rather than dependent on
   every caller dropping its connection after a failed write.  Callers
   are blocking clients; the server side never blocks on a write (the
   event loop's nonblocking [ec_flush]). *)
let write_frame fd buf =
  let b = Buffer.to_bytes buf in
  Buffer.clear buf;
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    let n = write_retry fd b !off (len - !off) in
    if n = 0 then raise Closed;
    off := !off + n
  done

(* ------------------------------------------------------------------ *)
(* Chaos injection points on the server's reply/read paths (the event
   loop below, and [Shm_conn]'s ring-level equivalents).  The
   disabled state is the distinguished [Faults.none] instance, checked
   by physical equality before anything else — the same
   zero-cost-when-off discipline as [Obs.Probe.is_noop] /
   [Smr.Instrument.wrap]. *)

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

  (* Claim one armed unit, resolving races between server domains. *)
  let rec take counter =
    let n = Atomic.get counter in
    if n <= 0 then false
    else if Atomic.compare_and_set counter n (n - 1) then true
    else take counter

  (* Claiming accessors for transports outside this module (the shm
     multiplexer maps these onto ring-level damage). *)
  let take_truncate_reply t = take t.truncate_replies
  let take_close_mid_frame t = take t.close_mid_frame
  let take_delayed_read t = take t.delayed_reads
  let delay_s t = t.delay_s
end

let shed_and_close fd =
  let out = Buffer.create 8 in
  Codec.encode_reply out Codec.Shed;
  (try write_frame fd out with Closed | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

exception Addr_in_use of string

(* A crashed daemon leaves its socket file behind; a live one leaves
   the same file.  Probe before touching it: a successful connect
   means someone is serving — refuse to clobber them — while a
   connection-refused (or any other failure) on an existing file
   means the path is stale and safe to unlink. *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if live then raise (Addr_in_use path);
    try Unix.unlink path with Unix.Unix_error _ -> ()
  end

let bind_listen ~path ~backlog =
  ignore_sigpipe ();
  claim_socket_path path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd backlog;
  listen_fd

let connect_unix ~path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

(* ------------------------------------------------------------------ *)
(* The unix-socket server: one pump domain owns every connection — accept,
   nonblocking reads into per-connection buffers, the shared
   [Codec.frame_reader] state machine over those buffers, submission
   to the shard mailboxes under a single leased producer tid, and
   nonblocking ordered reply writes with short-write resume.  Shard
   consumers hand completions back through a lock-free stack plus a
   wake pipe, so the pump never blocks while work is pending.

   Fan-in economics: the whole loop is one domain and one producer tid
   (tid 0 — the pump is one submitter, and transparent schemes need
   nothing more), so the connection count is bounded by a 1024 cap and
   fd limits, not by [Shard.t.clients] or the runtime's domain cap.
   Being one domain, the pump can also hold one zero-copy slot and
   answer GETs itself from the live maps ([Shard.read_inline]). *)

type econn = {
  ec_fd : Unix.file_descr;
  mutable ec_buf : bytes;  (* request bytes accumulated, [ec_pos, ec_len) *)
  mutable ec_len : int;
  mutable ec_pos : int;
  mutable ec_rd : Codec.reader;  (* frame decoder over the window above *)
  mutable ec_obuf : bytes;  (* encoded replies not yet on the wire *)
  mutable ec_obeg : int;
  mutable ec_oend : int;
  mutable ec_next_seq : int;  (* request seqs assigned on this connection *)
  mutable ec_flush_seq : int;  (* next seq whose reply goes on the wire *)
  ec_done : (int, Codec.reply) Hashtbl.t;  (* completed out of order *)
  ec_pending : (int * Codec.request) Queue.t;
      (* parsed but not yet accepted by a shard mailbox (mailbox-full
         backpressure); head-first retry preserves request order *)
  mutable ec_eof : bool;  (* peer finished sending; flush then close *)
  mutable ec_dead : bool;
  mutable ec_want_write : bool;
  mutable ec_reading : bool;  (* read interest currently registered *)
  mutable ec_hard_close : bool;  (* injected fault: close after flush *)
  mutable ec_delay_until : float;  (* injected fault: slow peer *)
}

type server = {
  e_svc : Shard.t;
  e_listen : Unix.file_descr;
  e_path : string;
  e_poll : Poller.t;
  e_conns : (int, econn) Hashtbl.t;  (* raw fd -> conn; pump domain only *)
  e_exec : Codec.request -> Codec.reply option;
      (* the ext fast path; [None] falls through to an async submit *)
  e_zc_slot : int option;
      (* zero-copy slot the pump answers GETs inline under; [None] when
         the service has none to lease or stores arena references *)
  e_completions : (econn * int * Codec.reply) list Atomic.t;
  e_wake_r : Unix.file_descr;
  e_wake_w : Unix.file_descr;
  e_wake_armed : bool Atomic.t;
  e_stop : bool Atomic.t;
  mutable e_pump : unit Domain.t option;
  e_faults : Faults.t;
  e_max_conns : int;
  e_stopped : bool Atomic.t;
  e_scratch : Buffer.t;  (* reply encode staging; pump domain only *)
  mutable e_has_pending : bool;
      (* some connection holds mailbox-refused requests; pump only *)
  e_defer : Codec.request -> bool;
      (* ext requests classified here run on the deferred-ext worker
         domain, not inline on the pump: unbounded-work control ops
         (cluster migration ingest, full-shard snapshot traversals)
         must never stall every connection's reads and accepts *)
  e_work : (econn * int * Codec.request) Queue.t;
  e_work_lock : Mutex.t;
  e_work_cond : Condition.t;
  mutable e_worker : unit Domain.t option;
}

(* Out-buffer watermarks: a peer that pipelines requests without
   reading replies grows [ec_obuf]; past [ec_high] the pump stops
   reading from it (its kernel buffer backpressures the peer) and
   resumes below [ec_low].  One misbehaving connection degrades only
   itself. *)
let ec_high = 256 * 1024
let ec_low = 64 * 1024

(* Pending-queue watermarks: a connection pipelining faster than its
   shards drain accumulates parsed-but-unsubmitted requests.  All
   connections share one producer tid, so a full mailbox is the norm
   under pipelining, not an overload signal — the pump therefore
   holds refused requests and retries in arrival order rather than
   answering [Shed].  Past [ec_pending_high] it also
   stops reading from the connection until the queue drains below
   [ec_pending_low], so the backpressure reaches the peer's socket. *)
let ec_pending_high = 1024
let ec_pending_low = 256

(* Every connection's requests are submitted under this one producer
   tid; callers reserve it for the server. *)
let pump_tid = 0

let enqueue_completion srv c seq reply =
  let rec push () =
    let old = Atomic.get srv.e_completions in
    if not (Atomic.compare_and_set srv.e_completions old ((c, seq, reply) :: old))
    then push ()
  in
  push ();
  (* Wake the pump iff it is (or is about to go) blocking: [exchange]
     claims the armed flag so concurrent completers write one byte,
     not one each. *)
  if Atomic.exchange srv.e_wake_armed false then
    try ignore (Unix.write srv.e_wake_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

let ec_close srv c =
  if not c.ec_dead then begin
    c.ec_dead <- true;
    Poller.remove srv.e_poll c.ec_fd;
    Hashtbl.remove srv.e_conns (Poller.fd_int c.ec_fd);
    try Unix.close c.ec_fd with Unix.Unix_error _ -> ()
  end

let ec_update_interest srv c =
  if not c.ec_dead then begin
    let backlog = c.ec_oend - c.ec_obeg in
    let pend = Queue.length c.ec_pending in
    let want_read =
      if c.ec_eof then false
      else if c.ec_reading then
        backlog <= ec_high && pend <= ec_pending_high  (* pause above high *)
      else backlog < ec_low && pend < ec_pending_low
      (* resume below low: hysteresis *)
    in
    c.ec_reading <- want_read;
    Poller.modify srv.e_poll c.ec_fd ~read:want_read ~write:c.ec_want_write
  end

(* Flush as much of [ec_obuf] as the socket accepts right now; EAGAIN
   registers write interest and returns.  Any hard error costs exactly
   this connection. *)
let rec ec_flush srv c =
  if (not c.ec_dead) && c.ec_oend > c.ec_obeg then begin
    match Unix.write c.ec_fd c.ec_obuf c.ec_obeg (c.ec_oend - c.ec_obeg) with
    | 0 -> ec_close srv c
    | n ->
        c.ec_obeg <- c.ec_obeg + n;
        if c.ec_obeg = c.ec_oend then begin
          c.ec_obeg <- 0;
          c.ec_oend <- 0;
          c.ec_want_write <- false;
          ec_update_interest srv c;
          if c.ec_hard_close then ec_close srv c
          else if
            c.ec_eof
            && c.ec_next_seq = c.ec_flush_seq
            && Hashtbl.length c.ec_done = 0
          then ec_close srv c
        end
        else ec_flush srv c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if not c.ec_want_write then begin
          c.ec_want_write <- true;
          ec_update_interest srv c
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ec_flush srv c
    | exception Unix.Unix_error _ -> ec_close srv c
  end
  else if
    (not c.ec_dead) && c.ec_oend = c.ec_obeg
    && (c.ec_hard_close
       || c.ec_eof
          && c.ec_next_seq = c.ec_flush_seq
          && Hashtbl.length c.ec_done = 0)
  then ec_close srv c

let ec_append_out c b off len =
  let need = c.ec_oend - c.ec_obeg + len in
  let cap = Bytes.length c.ec_obuf in
  if c.ec_oend + len > cap then
    if need <= cap then begin
      (* compact in place *)
      Bytes.blit c.ec_obuf c.ec_obeg c.ec_obuf 0 (c.ec_oend - c.ec_obeg);
      c.ec_oend <- c.ec_oend - c.ec_obeg;
      c.ec_obeg <- 0
    end
    else begin
      let ncap = max (cap * 2) (need + 4096) in
      let nb = Bytes.create ncap in
      Bytes.blit c.ec_obuf c.ec_obeg nb 0 (c.ec_oend - c.ec_obeg);
      c.ec_obuf <- nb;
      c.ec_oend <- c.ec_oend - c.ec_obeg;
      c.ec_obeg <- 0
    end;
  Bytes.blit b off c.ec_obuf c.ec_oend len;
  c.ec_oend <- c.ec_oend + len

(* Stage [reply] for [seq] and move every now-contiguous reply from
   the reorder window onto the out buffer, in request order, so a
   connection's reply trace is the one a lockstep client would see.
   Injected reply faults cut the frame (after the length prefix, or
   halfway through the payload) and close after the cut bytes drain:
   the client observes a mid-frame EOF. *)
let ec_complete srv c seq reply =
  if not c.ec_dead then begin
    Hashtbl.replace c.ec_done seq reply;
    let progressed = ref false in
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt c.ec_done c.ec_flush_seq with
      | None -> continue := false
      | Some r ->
          Hashtbl.remove c.ec_done c.ec_flush_seq;
          c.ec_flush_seq <- c.ec_flush_seq + 1;
          progressed := true;
          let faults = srv.e_faults in
          Buffer.clear srv.e_scratch;
          Codec.encode_reply srv.e_scratch r;
          let b = Buffer.to_bytes srv.e_scratch in
          Buffer.clear srv.e_scratch;
          if
            (not (Faults.is_none faults))
            && Faults.take faults.Faults.close_mid_frame
          then begin
            ec_append_out c b 0 (min 4 (Bytes.length b));
            c.ec_hard_close <- true;
            continue := false
          end
          else if
            (not (Faults.is_none faults))
            && Faults.take faults.Faults.truncate_replies
          then begin
            let cut = min (Bytes.length b) (4 + ((Bytes.length b - 4) / 2)) in
            ec_append_out c b 0 cut;
            c.ec_hard_close <- true;
            continue := false
          end
          else ec_append_out c b 0 (Bytes.length b)
    done;
    if !progressed then begin
      ec_flush srv c;
      (* A still-growing backlog may cross the high watermark. *)
      ec_update_interest srv c
    end
  end

(* Run the ext handler, never letting its exception reach the pump:
   an ext that raises costs its request an [Error] reply, not the
   event loop and every connection on it. *)
let ec_exec_ext srv req =
  match srv.e_exec req with
  | r -> r
  | exception e -> Some (Codec.Error ("ext: " ^ Printexc.to_string e))

(* Feed the connection's pending queue into the shard mailboxes,
   oldest first, stopping at the first refusal.  [Shard.submit]
   invokes its callback with [Shed] only {e synchronously} (consumers
   never produce it), so reading the flag after the call is race-free
   on the pump; every other reply — including the synchronous
   service-stopped error — flows through the completion stack like an
   ordinary consumer-side reply.

   The ext handler is re-consulted for every request popped here: a
   request can park in [ec_pending] for an unbounded time under
   mailbox backpressure, and the verdict that let it fall through at
   dispatch may have flipped meanwhile (a cluster slot frozen by a
   migration cutover must answer [Moved], not commit at the old
   owner).  The re-check narrows that window to the submit itself;
   the flip can still race it (ownership changes run on the deferred
   worker), which is why the {e authoritative} gate is the service's
   execution-time admission filter ([Shard.admit]) — the cutover's
   quiesce barrier certifies anything that slips past this check.
   The ext contract makes the double call safe: handlers must be
   effect-free on requests they decline. *)
let ec_submit_pending srv c =
  let continue = ref true in
  while !continue && (not c.ec_dead) && not (Queue.is_empty c.ec_pending) do
    let seq, req = Queue.peek c.ec_pending in
    match ec_exec_ext srv req with
    | Some r ->
        ignore (Queue.pop c.ec_pending);
        ec_complete srv c seq r
    | None ->
        let shed = ref false in
        srv.e_svc.Shard.submit ~tid:pump_tid req (fun reply ->
            match reply with
            | Codec.Shed -> shed := true
            | r -> enqueue_completion srv c seq r);
        if !shed then begin
          srv.e_has_pending <- true;
          continue := false
        end
        else ignore (Queue.pop c.ec_pending)
  done

(* Dispatch one decoded request.  Deferred-classified ext requests
   (unbounded work: migration ingest, snapshot traversals) go to the
   worker domain and complete through the completion stack; the rest
   of the ext handler answers inline on the pump (redirect checks,
   table reads — bounded work); a GET is answered on the pump from
   committed state when [Shard.read_inline] accepts it; every other
   data request goes through the async submit under the pump's single
   tid, completing from the shard consumer's domain. *)
let ec_dispatch srv c payload =
  let seq = c.ec_next_seq in
  c.ec_next_seq <- seq + 1;
  match Codec.request_of_payload payload with
  | exception Codec.Malformed m ->
      (* Framing survived but the payload is garbage: answer, then
         drop the connection — the stream position cannot be
         trusted. *)
      c.ec_eof <- true;
      ec_update_interest srv c;
      ec_complete srv c seq (Codec.Error ("malformed: " ^ m))
  | req ->
      if srv.e_defer req then begin
        Mutex.lock srv.e_work_lock;
        Queue.push (c, seq, req) srv.e_work;
        Condition.signal srv.e_work_cond;
        Mutex.unlock srv.e_work_lock
      end
      else
        match ec_exec_ext srv req with
        | Some r -> ec_complete srv c seq r
        | None -> (
            let inline =
              (* Inline only with every earlier request on this
                 connection answered, so its replies keep their
                 order and a GET sees the connection's own writes. *)
              match (req, srv.e_zc_slot) with
              | Codec.Get key, Some slot
                when seq = c.ec_flush_seq && Queue.is_empty c.ec_pending ->
                  Shard.read_inline srv.e_svc ~slot key
              | _ -> None
            in
            match inline with
            | Some (Some v) -> ec_complete srv c seq (Codec.Value v)
            | Some None -> ec_complete srv c seq Codec.Not_found
            | None ->
                Queue.push (seq, req) c.ec_pending;
                ec_submit_pending srv c)

(* The deferred-ext worker: one domain draining [e_work] in order
   (FIFO keeps one client's control ops serialized), completing
   through the same stack as the shard consumers.  Replies for
   since-dead connections are dropped by [ec_complete]. *)
let ec_ext_worker srv () =
  let rec next () =
    Mutex.lock srv.e_work_lock;
    let rec take () =
      if Atomic.get srv.e_stop then None
      else if Queue.is_empty srv.e_work then begin
        Condition.wait srv.e_work_cond srv.e_work_lock;
        take ()
      end
      else Some (Queue.pop srv.e_work)
    in
    let item = take () in
    Mutex.unlock srv.e_work_lock;
    match item with
    | None -> ()
    | Some (c, seq, req) ->
        let reply =
          match ec_exec_ext srv req with
          | Some r -> r
          | None -> Codec.Error "ext: deferred request not handled"
        in
        enqueue_completion srv c seq reply;
        next ()
  in
  next ()

(* Drain every complete frame currently buffered.  [next_frame] is
   only entered when the 4-byte prefix and the full payload are
   already in [ec_buf], so the pull source never starves mid-frame —
   the same decoder instance a blocking transport would use. *)
let ec_parse srv c =
  let continue = ref true in
  while !continue && not c.ec_dead do
    let avail = c.ec_len - c.ec_pos in
    if avail < 4 then continue := false
    else
      let len = Int32.to_int (Bytes.get_int32_be c.ec_buf c.ec_pos) in
      if len < 0 || len > Codec.max_frame then begin
        (* Framing is gone; nothing can be answered safely. *)
        c.ec_eof <- true;
        if c.ec_next_seq = c.ec_flush_seq then ec_close srv c
        else ec_update_interest srv c;
        continue := false
      end
      else if avail < 4 + len then continue := false
      else begin
        (match Codec.next_frame c.ec_rd with
        | Codec.Frame payload -> ec_dispatch srv c payload
        | Codec.Eof | Codec.Torn _ ->
            (* Unreachable: the full frame is buffered. *)
            ec_close srv c
        | exception Codec.Malformed _ -> ec_close srv c);
        if c.ec_eof then continue := false
      end
  done

let ec_read srv c =
  if not c.ec_dead then begin
    (* Compact: parsed bytes make room before the next read. *)
    if c.ec_pos > 0 then begin
      if c.ec_len > c.ec_pos then
        Bytes.blit c.ec_buf c.ec_pos c.ec_buf 0 (c.ec_len - c.ec_pos);
      c.ec_len <- c.ec_len - c.ec_pos;
      c.ec_pos <- 0
    end;
    if c.ec_len = Bytes.length c.ec_buf then begin
      (* A frame larger than the buffer: grow to the framing bound. *)
      let ncap = min (2 * Bytes.length c.ec_buf) (4 + Codec.max_frame) in
      if ncap > Bytes.length c.ec_buf then begin
        let nb = Bytes.create ncap in
        Bytes.blit c.ec_buf 0 nb 0 c.ec_len;
        c.ec_buf <- nb
      end
    end;
    let space = Bytes.length c.ec_buf - c.ec_len in
    if space > 0 then begin
      match Unix.read c.ec_fd c.ec_buf c.ec_len space with
      | 0 ->
          c.ec_eof <- true;
          ec_update_interest srv c;
          (* Whatever is buffered still gets parsed and answered. *)
          ec_parse srv c;
          ec_flush srv c
      | n ->
          c.ec_len <- c.ec_len + n;
          ec_parse srv c
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ec_parse srv c
      | exception Unix.Unix_error _ -> ec_close srv c
    end
  end

let ec_handle_read srv c =
  let faults = srv.e_faults in
  if
    (not (Faults.is_none faults))
    && c.ec_delay_until <= Unix.gettimeofday ()
    && Faults.take faults.Faults.delayed_reads
  then c.ec_delay_until <- Unix.gettimeofday () +. Faults.delay_s faults;
  (* A delayed connection leaves its bytes in the kernel buffer;
     level-triggered polling revisits it once the pause elapses. *)
  if c.ec_delay_until <= Unix.gettimeofday () then ec_read srv c

let ec_accept_burst srv =
  let continue = ref true in
  while !continue do
    match Unix.accept srv.e_listen with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
    | fd, _ ->
        if
          Atomic.get srv.e_stop
          || Hashtbl.length srv.e_conns >= srv.e_max_conns
          || not (Poller.accepts srv.e_poll fd)
          (* select backend: an fd value past FD_SETSIZE would fail
             EINVAL inside the poller — shed it, don't register it *)
        then shed_and_close fd
        else begin
          Unix.set_nonblock fd;
          let c =
            {
              ec_fd = fd;
              ec_buf = Bytes.create 4096;
              ec_len = 0;
              ec_pos = 0;
              ec_rd = Codec.frame_reader (fun _ _ _ -> 0);
              ec_obuf = Bytes.create 4096;
              ec_obeg = 0;
              ec_oend = 0;
              ec_next_seq = 0;
              ec_flush_seq = 0;
              ec_done = Hashtbl.create 8;
              ec_pending = Queue.create ();
              ec_eof = false;
              ec_dead = false;
              ec_want_write = false;
              ec_reading = true;
              ec_hard_close = false;
              ec_delay_until = 0.0;
            }
          in
          (* The decoder's pull source is the connection's own buffer
             window; [ec_parse] guarantees it is only pulled when a
             whole frame is present. *)
          c.ec_rd <-
            Codec.frame_reader (fun b off len ->
                let n = min len (c.ec_len - c.ec_pos) in
                Bytes.blit c.ec_buf c.ec_pos b off n;
                c.ec_pos <- c.ec_pos + n;
                n);
          Hashtbl.replace srv.e_conns (Poller.fd_int fd) c;
          Poller.add srv.e_poll fd ~read:true ~write:false
        end
  done

let ec_drain_completions srv =
  let rec take () =
    let old = Atomic.get srv.e_completions in
    if old == [] then []
    else if Atomic.compare_and_set srv.e_completions old [] then old
    else take ()
  in
  match take () with
  | [] -> ()
  | batch ->
      (* The stack yields newest-first; completions for one connection
         reorder through the seq window anyway, so order here only
         affects fairness, not correctness. *)
      List.iter (fun (c, seq, reply) -> ec_complete srv c seq reply) batch

let rec ec_pump srv () =
  let drain = Bytes.create 64 in
  (* Exception barrier: no single pass may kill the pump silently —
     the daemon would accept nothing while looking alive, with the
     exception resurfacing only at [Domain.join] during shutdown.
     A faulting pass is reported and the loop continues (per-
     connection damage was already contained by the per-conn error
     paths); only a persistent fault — every pass failing — stops the
     server, loudly (the shm multiplexer's discipline). *)
  let faulting = ref 0 in
  while not (Atomic.get srv.e_stop) do
    match
      ec_pump_pass srv drain
    with
    | () -> faulting := 0
    | exception e ->
        incr faulting;
        Printf.eprintf "kv evloop: pump pass failed: %s\n%!"
          (Printexc.to_string e);
        if !faulting >= 100 then begin
          Printf.eprintf
            "kv evloop: %d consecutive failing passes; stopping the server\n%!"
            !faulting;
          Atomic.set srv.e_stop true
        end
  done;
  (* Teardown on the pump: it owns every fd. *)
  Hashtbl.iter (fun _ c -> ec_close srv c) (Hashtbl.copy srv.e_conns);
  Poller.close srv.e_poll;
  (try Unix.close srv.e_listen with Unix.Unix_error _ -> ());
  (try Unix.close srv.e_wake_r with Unix.Unix_error _ -> ());
  try Unix.close srv.e_wake_w with Unix.Unix_error _ -> ()

and ec_pump_pass srv drain =
  begin
    ec_drain_completions srv;
    (* A drained completion means the consumer took envelopes off a
       mailbox — the moment refused requests are worth retrying. *)
    if srv.e_has_pending then begin
      srv.e_has_pending <- false;
      Hashtbl.iter
        (fun _ c ->
          if not (Queue.is_empty c.ec_pending) then begin
            ec_submit_pending srv c;
            ec_update_interest srv c
          end)
        srv.e_conns
    end;
    (* Sleep only with the wake armed, and only after a last look at
       the completion stack — a completer that pushed before seeing
       the armed flag is caught by the re-check, one that pushed after
       writes the wake byte (the shm mux idle-race discipline). *)
    Atomic.set srv.e_wake_armed true;
    let timeout_ms =
      if Atomic.get srv.e_completions != [] then 0
      else if srv.e_has_pending then 1
      else if not (Faults.is_none srv.e_faults) then 2
      else 50
    in
    let listen_raw = Poller.fd_int srv.e_listen in
    let wake_raw = Poller.fd_int srv.e_wake_r in
    ignore
      (Poller.wait srv.e_poll ~timeout_ms (fun fd ~readable ~writable ->
           if Poller.fd_int fd = listen_raw then ec_accept_burst srv
           else if Poller.fd_int fd = wake_raw then (
             try ignore (Unix.read srv.e_wake_r drain 0 (Bytes.length drain))
             with Unix.Unix_error _ -> ())
           else
             match Hashtbl.find_opt srv.e_conns (Poller.fd_int fd) with
             | None -> ()
             | Some c ->
                 if writable then ec_flush srv c;
                 if readable && not c.ec_dead then ec_handle_read srv c));
    Atomic.set srv.e_wake_armed false;
    (* Completions may have landed while handling events; faulted
       delayed connections are revisited by the shortened timeout. *)
    if not (Faults.is_none srv.e_faults) then
      Hashtbl.iter
        (fun _ c ->
          if
            c.ec_delay_until > 0.0
            && c.ec_delay_until <= Unix.gettimeofday ()
            && not c.ec_dead
          then begin
            c.ec_delay_until <- 0.0;
            ec_read srv c
          end)
        (Hashtbl.copy srv.e_conns)
  end

type backend = [ `Evloop of Poller.backend ]

let serve_unix svc ~path ?(backlog = 16) ?(faults = Faults.none) ?ext
    ?ext_defer ?(backend = `Evloop `Auto) () =
  let (`Evloop poller) = backend in
  let listen_fd = bind_listen ~path ~backlog in
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let poll = Poller.create poller in
  (* The select fallback cannot watch fd values past FD_SETSIZE:
     clamp the connection cap below the wall (accept re-checks the
     actual fd value and sheds strays). *)
  let max_conns = min 1024 (Poller.max_fds poll) in
  let exec =
    match ext with Some h -> h | None -> fun _ -> None
  in
  let srv =
    {
      e_svc = svc;
      e_listen = listen_fd;
      e_path = path;
      e_poll = poll;
      e_conns = Hashtbl.create 64;
      e_exec = exec;
      e_zc_slot =
        (* An arena-backed map holds references, which only the shm
           transport can answer. *)
        (if svc.Shard.arena = None then svc.Shard.zc_lease () else None);
      e_completions = Atomic.make [];
      e_wake_r = wake_r;
      e_wake_w = wake_w;
      e_wake_armed = Atomic.make false;
      e_stop = Atomic.make false;
      e_pump = None;
      e_faults = faults;
      e_max_conns = max_conns;
      e_stopped = Atomic.make false;
      e_scratch = Buffer.create 64;
      e_has_pending = false;
      e_defer = (match ext_defer with Some f -> f | None -> fun _ -> false);
      e_work = Queue.create ();
      e_work_lock = Mutex.create ();
      e_work_cond = Condition.create ();
      e_worker = None;
    }
  in
  Poller.add poll listen_fd ~read:true ~write:false;
  Poller.add poll wake_r ~read:true ~write:false;
  srv.e_pump <- Some (Domain.spawn (ec_pump srv));
  (match ext_defer with
  | Some _ -> srv.e_worker <- Some (Domain.spawn (ec_ext_worker srv))
  | None -> ());
  srv

let shutdown srv =
  if Atomic.compare_and_set srv.e_stopped false true then begin
    Atomic.set srv.e_stop true;
    (try ignore (Unix.write srv.e_wake_w (Bytes.make 1 '!') 0 1)
     with Unix.Unix_error _ -> ());
    (* Wake the deferred-ext worker under its lock, so the stop flag
       is seen by the wait it interrupts. *)
    Mutex.lock srv.e_work_lock;
    Condition.broadcast srv.e_work_cond;
    Mutex.unlock srv.e_work_lock;
    (match srv.e_pump with
    | Some d ->
        Domain.join d;
        srv.e_pump <- None
    | None -> ());
    (match srv.e_worker with
    | Some d ->
        Domain.join d;
        srv.e_worker <- None
    | None -> ());
    Option.iter srv.e_svc.Shard.zc_release srv.e_zc_slot;
    try Unix.unlink srv.e_path with Unix.Unix_error _ -> ()
  end

let faults srv = srv.e_faults

let call_fd fd req =
  let out = Buffer.create 32 in
  Codec.encode_request out req;
  write_frame fd out;
  match read_frame fd with
  | Some payload -> Codec.reply_of_payload payload
  | None -> raise Closed

(* ------------------------------------------------------------------ *)

(* In-process zero-copy reads: the client leases a Shard zero-copy
   slot and reads the live maps from its own domain inside an
   enter/leave bracket — GET never crosses the mailbox, is never
   copied into a reply frame, and costs no syscall.  The SMR scheme
   is the sender/receiver isolation: a transparent scheme needs no
   per-read protection (the bracket alone licenses the read), and a
   client that stalls inside its bracket can only pin what a robust
   scheme bounds.  Writes still go through the ordinary submit path —
   the consumer stays each map's only mutator. *)
module Zerocopy = struct
  type client = {
    svc : Shard.t;
    slot : int;
    tid : int;
    mutable in_bracket : bool;
    mutable closed : bool;
  }

  let connect svc ~tid =
    if tid < 0 || tid >= svc.Shard.clients then
      invalid_arg "Zerocopy.connect: tid outside the client range";
    match svc.Shard.zc_lease () with
    | None -> None
    | Some slot -> Some { svc; slot; tid; in_bracket = false; closed = false }

  let check c =
    if c.closed then invalid_arg "Zerocopy: client is closed"

  let enter c =
    check c;
    if c.in_bracket then invalid_arg "Zerocopy.enter: bracket already open";
    c.in_bracket <- true;
    c.svc.Shard.zc_enter ~slot:c.slot

  let leave c =
    check c;
    if not c.in_bracket then invalid_arg "Zerocopy.leave: no open bracket";
    c.svc.Shard.zc_leave ~slot:c.slot;
    c.in_bracket <- false

  let get c k =
    check c;
    if not c.in_bracket then
      invalid_arg "Zerocopy.get: read outside the bracket";
    c.svc.Shard.zc_get ~slot:c.slot k

  let with_bracket c f =
    enter c;
    Fun.protect ~finally:(fun () -> if c.in_bracket then leave c) f

  (* The write path (and any non-GET request): the ordinary routed
     call under the client's producer tid. *)
  let call c req =
    check c;
    Shard.call c.svc ~tid:c.tid req

  let close c =
    if not c.closed then begin
      if c.in_bracket then leave c;
      c.closed <- true;
      c.svc.Shard.zc_release c.slot
    end

  let slot c = c.slot
end

module Loopback = struct
  type client = { svc : Shard.t; tid : int; buf : Buffer.t }

  let connect svc ~tid =
    if tid < 0 || tid >= svc.Shard.clients then
      invalid_arg "Loopback.connect: tid outside the client range";
    { svc; tid; buf = Buffer.create 64 }

  let strip_frame b = Bytes.sub b 4 (Bytes.length b - 4)

  let call c req =
    (* The full wire path, in memory: encode the request, decode it as
       the server would, execute, encode the reply, decode it as the
       client would.  A codec regression fails here exactly as it
       would over a socket. *)
    Buffer.clear c.buf;
    Codec.encode_request c.buf req;
    let req = Codec.request_of_payload (strip_frame (Buffer.to_bytes c.buf)) in
    let reply = Shard.call c.svc ~tid:c.tid req in
    Buffer.clear c.buf;
    Codec.encode_reply c.buf reply;
    Codec.reply_of_payload (strip_frame (Buffer.to_bytes c.buf))
end
