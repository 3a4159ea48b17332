(* Spin-then-sleep wakeup over a named FIFO.

   The hot path never touches the kernel: a waiter first polls its
   ready predicate, once per [Domain.cpu_relax], so a reply is seen
   within one relax of landing (the shape of [Prims.Parker.park]).
   Only when the spin budget runs out does it publish a "waiting" flag
   (a word in the shared segment, supplied by the caller as closures),
   re-check the predicate, and block in [select] on the FIFO's read
   end.  The budget is [spin] rounds of a 32, 64, ..., 1024 doubling
   schedule: [~spin:4] is 480 relaxes, {!default_spin} 200,672.  The
   ringer's fast path is a single shared-memory load of that flag —
   it opens and writes the FIFO only when the peer is actually
   asleep, so a saturated ring exchanges messages with no syscalls at
   all.

   Lost-wakeup freedom: the waiter opens its read end *before*
   raising the flag, and re-checks [ready] *after* raising it; the
   ringer publishes its data *before* loading the flag.  Either the
   waiter sees the data on the re-check, or the ringer sees the flag
   and writes a byte that [select] observes.  The FIFO write is
   non-blocking — a full pipe already guarantees a pending wakeup
   (EAGAIN is success), and ENXIO (no reader yet) can only happen
   outside the flagged window, where the select timeout bounds the
   race anyway. *)

type t = {
  path : string;
  mutable rd : Unix.file_descr option;
  mutable wr : Unix.file_descr option;
  drain_buf : bytes;
}

let default_spin = 200

let create ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.mkfifo path 0o600;
  { path; rd = None; wr = None; drain_buf = Bytes.create 64 }

let attach ~path = { path; rd = None; wr = None; drain_buf = Bytes.create 64 }
let path t = t.path

let fd_rd t =
  match t.rd with
  | Some fd -> fd
  | None ->
      let fd = Unix.openfile t.path [ Unix.O_RDONLY; Unix.O_NONBLOCK ] 0 in
      t.rd <- Some fd;
      fd

let drain t =
  match t.rd with
  | None -> ()
  | Some fd ->
      let rec go () =
        match Unix.read fd t.drain_buf 0 (Bytes.length t.drain_buf) with
        | n when n > 0 -> go ()
        | _ -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ()

let ring t =
  let write fd =
    match Unix.write fd t.drain_buf 0 1 with
    | _ -> true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        true (* pipe full: a wakeup is already pending *)
    | exception Unix.Unix_error (Unix.EPIPE, _, _) -> false
  in
  match t.wr with
  | Some fd -> if not (write fd) then (Unix.close fd; t.wr <- None)
  | None -> (
      match Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 with
      | fd -> t.wr <- Some fd; if not (write fd) then (Unix.close fd; t.wr <- None)
      | exception Unix.Unix_error ((Unix.ENXIO | Unix.ENOENT), _, _) ->
          (* ENXIO: no reader has the FIFO open, so the peer cannot be
             inside its flagged sleep window; nothing to wake.  ENOENT:
             the peer already tore the connection down and unlinked the
             FIFO — equally nobody to wake. *)
          ())

(* Relaxes in [spin] rounds of the 32, 64, ..., 1024 doubling
   schedule: 32 (2^spin - 1) for the first five rounds, then 1024 a
   round. *)
let relaxes spin =
  if spin <= 5 then 32 * ((1 lsl max spin 0) - 1)
  else 992 + ((spin - 5) * 1024)

(* [ready] polled [n + 1] times, one relax between polls. *)
let rec poll ready n =
  ready ()
  || n > 0
     && begin
          Domain.cpu_relax ();
          poll ready (n - 1)
        end

let wait ?(spin = default_spin) ?(timeout_s = 0.05) t ~announce ~ready =
  if not (poll ready (relaxes spin)) then begin
    let fd = fd_rd t in
    announce true;
    (* Re-check after publishing the flag: the ringer loads the flag
       after publishing its data, so one side must see the other. *)
    if not (ready ()) then begin
      match Unix.select [ fd ] [] [] timeout_s with
      | [], _, _ -> ()
      | _ -> drain t
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end;
    announce false;
    drain t
  end

let close t =
  (match t.rd with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  (match t.wr with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  t.rd <- None;
  t.wr <- None

let unlink t = try Unix.unlink t.path with Unix.Unix_error _ -> ()
