(* Seeded op streams, the checked closed loop, and exact percentiles.

   Every value a client writes encodes its key ([v land vmask = key])
   above a sequence number drawn from one counter for the whole run, so
   no two writes of a run write the same value.  Every client owns a
   disjoint stripe of keys, so the generator knows the exact binding of
   each key it touches and checks every reply against it: a GET that
   returns another key's value, a stale value, or misses an acked write
   is counted as wrong. *)

let kind_get = 0
let kind_put = 1
let kind_del = 2
let kind_cas = 3
let vbits = 24
let vmask = (1 lsl vbits) - 1

(* Model cells: a value, or one of these. *)
let absent = -1
let unknown = -2
let stream_len = 1 lsl 18

type mix = { p_get : int; p_put : int; p_del : int }
(** Percentages; CAS takes the rest. *)

(* [stream ~seed ~dist ~mix ~stripe ~nstripes] is a ring of
   [stream_len] ops, each [key lsl 2 lor kind], over the keys
   [j * nstripes + stripe] for [j] drawn from [dist]. *)
let stream ~seed ~dist ~mix ~stripe ~nstripes =
  let rng = Prims.Rng.create ~seed in
  Array.init stream_len (fun _ ->
      let key = (Workload.Keydist.draw dist rng * nstripes) + stripe in
      let r = Prims.Rng.below rng 100 in
      let kind =
        if r < mix.p_get then kind_get
        else if r < mix.p_get + mix.p_put then kind_put
        else if r < mix.p_get + mix.p_put + mix.p_del then kind_del
        else kind_cas
      in
      (key lsl 2) lor kind)

type samples = { a : int array; mutable n : int }

let samples cap = { a = Array.make cap 0; n = 0 }

let[@inline] add s v =
  if s.n < Array.length s.a then begin
    Array.unsafe_set s.a s.n v;
    s.n <- s.n + 1
  end

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

(* Mean of the fastest 90% of a sorted array, in its units.  GET round
   trips over shm form two modes of about equal weight (replies caught
   while the client spins, and replies after a sleep and wake-up), and
   the p50 jumps between them from run to run; this trimmed mean moves
   smoothly with both modes and ignores the slowest tail. *)
let mean90 sorted =
  let n = ((Array.length sorted * 9) + 9) / 10 in
  let sum = ref 0 in
  for i = 0 to n - 1 do
    sum := !sum + sorted.(i)
  done;
  if n = 0 then 0.0 else float !sum /. float n

let merge ss =
  let total = List.fold_left (fun acc s -> acc + s.n) 0 ss in
  let m = samples (max 1 total) in
  List.iter (fun s -> Array.blit s.a 0 m.a m.n s.n; m.n <- m.n + s.n) ss;
  m

(* A hook sees every timed op: its class (0 = GET, 1 = write) and the
   client-side send and return timestamps. *)
type hook = int -> int -> int -> unit

let no_hook : hook = fun _ _ _ -> ()

type client = {
  conn : Wire.conn;
  ops : int array;
  model : int array;  (* shared between clients; stripes are disjoint *)
  mutable pos : int;
  gets : samples;
  writes : samples;
  mutable ok : int;
  mutable failed : int;
  mutable wrong : int;
  mutable why : string;
  hook : hook;
}

let client ?(hook = no_hook) ~conn ~ops ~model ~cap () =
  {
    conn;
    ops;
    model;
    pos = 0;
    gets = samples cap;
    writes = samples cap;
    ok = 0;
    failed = 0;
    wrong = 0;
    why = "";
    hook;
  }

let seq = Atomic.make 0
let next_value key = ((1 + Atomic.fetch_and_add seq 1) lsl vbits) lor key

let wrong cl key =
  cl.wrong <- cl.wrong + 1;
  if cl.why = "" then
    cl.why <-
      Printf.sprintf "key %d: reply opcode 0x%x (value %d), expected %d" key
        (Wire.reply_op cl.conn) (Wire.reply_value cl.conn) cl.model.(key)

(* Shed, Error or any reply the protocol does not allow: the op did
   not (knowably) happen.  Counted as failed; the key's binding is
   unknown until it is next read or written. *)
let failed cl key =
  cl.failed <- cl.failed + 1;
  cl.model.(key) <- unknown

let check_get cl key =
  let c = cl.conn in
  let m = cl.model.(key) in
  let r = Wire.reply_op c in
  if r = Wire.r_value then begin
    let v = Wire.reply_value c in
    if v land vmask <> key || m = absent || (m >= 0 && v <> m) then
      wrong cl key
    else begin
      cl.ok <- cl.ok + 1;
      cl.model.(key) <- v
    end
  end
  else if r = Wire.r_not_found then begin
    if m >= 0 then wrong cl key
    else begin
      cl.ok <- cl.ok + 1;
      cl.model.(key) <- absent
    end
  end
  else failed cl key

(* [expect_absent]/[expect_present]: the reply when the key was
   absent / bound beforehand.  [v] becomes the binding after a
   present-reply, and after an absent-reply only for PUT. *)
let check_write cl key ~expect_absent ~expect_present ~v =
  let m = cl.model.(key) in
  let r = Wire.reply_op cl.conn in
  let was_absent = r = expect_absent and was_present = r = expect_present in
  if not (was_absent || was_present) then failed cl key
  else if (was_absent && m >= 0) || (was_present && m = absent) then
    wrong cl key
  else begin
    cl.ok <- cl.ok + 1;
    cl.model.(key) <-
      (if was_present || expect_absent = Wire.r_created then v else absent)
  end

(* One closed-loop op: encode, time the round trip, check the reply. *)
let step cl =
  let o = Array.unsafe_get cl.ops cl.pos in
  cl.pos <- (cl.pos + 1) land (stream_len - 1);
  let kind = o land 3 and key = o lsr 2 in
  let c = cl.conn in
  let m = cl.model.(key) in
  let kind = if kind = kind_cas && m = unknown then kind_get else kind in
  if kind = kind_get then begin
    let len = Wire.get c key in
    let t0 = Wire.now () in
    c.send len;
    c.recv ();
    let t1 = Wire.now () in
    add cl.gets (t1 - t0);
    cl.hook 0 t0 t1;
    check_get cl key
  end
  else begin
    let v = next_value key in
    let len =
      if kind = kind_put then Wire.put c key v
      else if kind = kind_del then Wire.del c key
      else if m >= 0 then Wire.cas c key ~expected:m ~desired:v
      else Wire.cas c key ~expected:0 ~desired:v
    in
    let t0 = Wire.now () in
    c.send len;
    c.recv ();
    let t1 = Wire.now () in
    add cl.writes (t1 - t0);
    cl.hook 1 t0 t1;
    if kind = kind_put then
      check_write cl key ~expect_absent:Wire.r_created
        ~expect_present:Wire.r_updated ~v
    else if kind = kind_del then
      check_write cl key ~expect_absent:Wire.r_not_found
        ~expect_present:Wire.r_deleted ~v:absent
    else if m >= 0 && Wire.reply_op c = Wire.r_cas_fail then wrong cl key
    else
      check_write cl key ~expect_absent:Wire.r_not_found
        ~expect_present:Wire.r_cas_ok ~v
  end

(* Cumulative counts at the end of each window of a timed phase, so
   the phase can be summarized window by window. *)
type marks = { m_gets : int array; m_writes : int array; m_ok : int array }

(* The closed loop from [t0] for [nwin] windows of [window_ns];
   [on_window i] runs as window [i] closes. *)
let run_windows ?(on_window = fun _ -> ()) cl ~t0 ~window_ns ~nwin =
  let mk =
    {
      m_gets = Array.make nwin 0;
      m_writes = Array.make nwin 0;
      m_ok = Array.make nwin 0;
    }
  in
  for i = 0 to nwin - 1 do
    let until = t0 + ((i + 1) * window_ns) in
    while Wire.now () < until do
      step cl
    done;
    mk.m_gets.(i) <- cl.gets.n;
    mk.m_writes.(i) <- cl.writes.n;
    mk.m_ok.(i) <- cl.ok;
    on_window i
  done;
  mk

(* Windowed bulk phase over [keys] (prefill, fixed post-phase writes,
   read-back): up to [window] requests in flight, replies checked in
   order.  [write] = PUT a fresh value, otherwise GET. *)
let pipeline cl ~keys ~write ~window =
  let c = cl.conn in
  let n = Array.length keys in
  let vals = Array.make n 0 in
  let sent = ref 0 and got = ref 0 in
  while !got < n do
    while !sent < n && !sent - !got < window do
      let key = keys.(!sent) in
      let len =
        if write then begin
          let v = next_value key in
          vals.(!sent) <- v;
          Wire.put c key v
        end
        else Wire.get c key
      in
      c.send len;
      incr sent
    done;
    c.recv ();
    let key = keys.(!got) in
    if write then
      check_write cl key ~expect_absent:Wire.r_created
        ~expect_present:Wire.r_updated ~v:vals.(!got)
    else check_get cl key;
    incr got
  done
