(* Clients for kvd's wire protocol, plus the clock.

   The load generator speaks the Codec frame format (4-byte big-endian
   payload length, 1-byte opcode, 8-byte big-endian operands) itself,
   from preallocated buffers.  Two transports: a unix stream socket
   (no allocation per operation), and kvd's shared-memory rings driven
   through lib/shm the same way Service.Shm_conn's client drives them;
   there the ring reader and the doorbell still allocate a few words
   per op, which the traced run reports as gen.minor_words_per_op. *)

(* bechamel's CLOCK_MONOTONIC stub, declared here with an unboxed
   result so a timestamp costs no allocation. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let[@inline] now () = Int64.to_int (clock_ns ())

(* Referencing the library keeps its C stubs on the link line. *)
let () = ignore (Monotonic_clock.now ())

let op_get = 0x01
let op_put = 0x02
let op_del = 0x03
let op_cas = 0x04
let r_value = 0x81
let r_not_found = 0x82
let r_created = 0x83
let r_updated = 0x84
let r_deleted = 0x85
let r_cas_ok = 0x86
let r_cas_fail = 0x87

exception Closed

exception No_reply
(** No reply within [reply_timeout_s]. *)

let reply_timeout_s = 20.0

type conn = {
  req : Bytes.t;  (** the framed request to send next *)
  rep : Bytes.t;  (** the last reply's payload, length prefix stripped *)
  send : int -> unit;  (** send [req.(0 .. len-1)] *)
  recv : unit -> unit;  (** block until the next reply is in [rep] *)
  close : unit -> unit;
}

let[@inline] header b ~plen op =
  Bytes.set_int32_be b 0 (Int32.of_int plen);
  Bytes.set_uint8 b 4 op

let[@inline] operand b i v = Bytes.set_int64_be b (5 + (8 * i)) (Int64.of_int v)

(* Each encoder fills [c.req] and returns the frame length. *)
let get c k =
  header c.req ~plen:9 op_get;
  operand c.req 0 k;
  13

let put c k v =
  header c.req ~plen:17 op_put;
  operand c.req 0 k;
  operand c.req 1 v;
  21

let del c k =
  header c.req ~plen:9 op_del;
  operand c.req 0 k;
  13

let cas c k ~expected ~desired =
  header c.req ~plen:25 op_cas;
  operand c.req 0 k;
  operand c.req 1 expected;
  operand c.req 2 desired;
  29

let[@inline] reply_op c = Bytes.get_uint8 c.rep 0
let[@inline] reply_value c = Int64.to_int (Bytes.get_int64_be c.rep 1)

let rep_cap = 4096

(* ------------------------------------------------------------------ *)
(* Unix stream socket. *)

let unix_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  (* A daemon that stops answering fails the run instead of hanging it. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s;
  let req = Bytes.create 64 and rep = Bytes.create rep_cap in
  let hdr = Bytes.create 4 in
  let rec write_all off len =
    if len > 0 then
      match Unix.write fd req off len with
      | n -> write_all (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all off len
  in
  let rec read_exact b off len =
    if len > 0 then
      match Unix.read fd b off len with
      | 0 -> raise Closed
      | n -> read_exact b (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact b off len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          raise No_reply
  in
  let recv () =
    read_exact hdr 0 4;
    let plen = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if plen < 1 || plen > rep_cap then raise Closed;
    read_exact rep 0 plen
  in
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  { req; rep; send = (fun len -> write_all 0 len); recv; close }

(* ------------------------------------------------------------------ *)
(* Shared-memory rings: create a segment beside the daemon's listen
   FIFO, announce "<segment> <generation>\n" on it, then exchange
   frames through the two rings and sleep on the segment's doorbells
   (lib/shm) exactly as Service.Shm_conn's client does.  That client
   only offers a blocking round trip; the split send/recv here lets the
   bulk phases keep [window] requests in flight (see README.md). *)

let seg_counter = ref 0

(* The same spin budget as the shipped client: on a host with few
   cores a spinning client steals the time slice the daemon needs. *)
let client_spin =
  if Domain.recommended_domain_count () > 4 then Shm.Doorbell.default_spin
  else 4

let announce ~path seg =
  let line =
    Bytes.of_string
      (Printf.sprintf "%s %d\n" (Shm.Seg.path seg) (Shm.Seg.generation seg))
  in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = Unix.write fd line 0 (Bytes.length line) in
      if n <> Bytes.length line then failwith "shm announce: short write")

let shm_connect path =
  incr seg_counter;
  let seg_path =
    Printf.sprintf "%s.seg.%d.%d" path (Unix.getpid ()) !seg_counter
  in
  let seg = Shm.Seg.create ~path:seg_path () in
  (try announce ~path seg
   with e ->
     Shm.Seg.mark_closed seg;
     Shm.Seg.detach seg;
     Shm.Seg.unlink seg;
     raise e);
  let tx = Shm.Seg.c2s_ring seg and rx = Shm.Seg.s2c_ring seg in
  let bell = Shm.Doorbell.attach ~path:(Shm.Seg.cli_bell seg)
  and srv_bell = Shm.Doorbell.attach ~path:(Shm.Seg.srv_bell seg) in
  let nudge () = if Shm.Seg.server_waiting seg then Shm.Doorbell.ring srv_bell in
  let announce = Shm.Seg.set_client_waiting seg in
  let wait ready = Shm.Doorbell.wait bell ~spin:client_spin ~announce ~ready in
  let req = Bytes.create 64 and rep = Bytes.create rep_cap in
  let hdr = Bytes.create 4 in
  let send_len = ref 0 in
  let has_space () =
    Shm.Ring.send_space tx >= !send_len + 4 || not (Shm.Seg.is_open seg)
  in
  let send len =
    send_len := len;
    (* A full ring only happens in windowed bulk phases: the daemon
       rings us after consuming requests. *)
    while not (Shm.Ring.try_send tx req ~pos:0 ~len) do
      if not (Shm.Seg.is_open seg) then raise Closed;
      nudge ();
      wait has_space
    done;
    nudge ()
  in
  let rec take b off len =
    if len > 0 then
      match Shm.Ring.source rx b off len with
      | 0 -> raise Closed
      | n -> take b (off + n) (len - n)
  in
  let has_reply () =
    (match Shm.Ring.pending rx with `Empty -> false | _ -> true)
    || not (Shm.Seg.is_open seg)
  in
  let rec recv_by deadline =
    match Shm.Ring.pending rx with
    | `Msg plen ->
        if plen < 1 || plen > rep_cap then raise Closed;
        take hdr 0 4;
        take rep 0 plen;
        Shm.Ring.finish_msg rx
    | `Torn _ -> raise Closed
    | `Empty ->
        if not (Shm.Seg.is_open seg) then raise Closed;
        if now () > deadline then raise No_reply;
        wait has_reply;
        recv_by deadline
  in
  let recv () = recv_by (now () + int_of_float (reply_timeout_s *. 1e9)) in
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      Shm.Seg.mark_closed seg;
      Shm.Doorbell.ring srv_bell;
      Shm.Doorbell.close bell;
      Shm.Doorbell.close srv_bell;
      Shm.Seg.detach seg
    end
  in
  { req; rep; send; recv; close }
