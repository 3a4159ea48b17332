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
   EPIPE, which the serving engine already treats as that connection's
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
   engine's nonblocking flush). *)
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

(* Chaos injection points on the server's reply and read paths: the
   serving engine decides which armed fault a reply or read takes, and
   each medium applies it. *)
module Faults = Engine.Faults

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
(* The unix-socket edge of the serving engine ([Engine]): it accepts
   connections and hands each to the engine as a socket session.
   Every connection submits under one producer tid (tid 0 — the engine
   is one submitter, and transparent schemes need nothing more), so
   fan-in is bounded by a 1024-connection cap and fd limits, not by
   [Shard.t.clients] or the runtime's domain cap. *)

type server = { eng : Engine.t; path : string }
type backend = [ `Evloop of Poller.backend ]

let accept_burst listen eng =
  (* The select poller cannot watch fd values past FD_SETSIZE: clamp
     the cap below the wall (and shed strays whose value crosses it). *)
  let max_conns = min 1024 (Poller.max_fds eng.Engine.poll) in
  let continue = ref true in
  while !continue do
    match Unix.accept listen with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
    | fd, _ ->
        if
          Atomic.get eng.Engine.stop
          || Hashtbl.length eng.Engine.conns >= max_conns
          || not (Poller.accepts eng.Engine.poll fd)
        then shed_and_close fd
        else Engine.add_sock eng fd
  done

let serve_unix svc ~path ?(backlog = 16) ?(faults = Faults.none) ?ext
    ?ext_defer ?(backend = `Evloop `Auto) () =
  let (`Evloop poller) = backend in
  let listen = bind_listen ~path ~backlog in
  Unix.set_nonblock listen;
  let eng =
    Engine.start svc ~poller ~listen ~on_listen:(accept_burst listen) ~faults
      ?ext ?ext_defer
      (* An arena-backed map holds references, which only a ring peer
         can map: no inline GETs here. *)
      ~zc_slot:(if svc.Shard.arena = None then svc.Shard.zc_lease () else None)
      ~arena:None ()
  in
  { eng; path }

let shutdown srv =
  if Engine.stop srv.eng then
    try Unix.unlink srv.path with Unix.Unix_error _ -> ()

let faults srv = srv.eng.Engine.faults

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
