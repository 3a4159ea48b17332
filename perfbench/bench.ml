(* The repository benchmark: three workloads, end-to-end metrics from
   untraced runs, per-layer metrics from a traced run.

     bench.exe --workload kv-read|kv-write|map-churn --seed N
               --seconds S --trace 0|1 --kvd PATH --dir RUNDIR

   kv-read and kv-write drive bin/kvd.exe as a child process over its
   real transports; map-churn drives the lock-free map in-process.  The
   last stdout line is one JSON object: correct, attempted, failed and
   the metrics.  The exit code is 1 on any wrong value or lost acked
   write.  README.md in this directory explains the choices. *)

module Shard = Service.Shard
module Codec = Service.Codec

(* ------------------------------------------------------------------ *)
(* Fixed shape of every workload. *)

let scheme = "hyalines"
let structure = "hashmap"
let shards = 2
let slots = 4

(* Set-ups and recovery cycles per run; each figure is [calm] over
   them.  A kv-read restart takes about 35 ms, with stretches of
   several cycles near 25 ms, so kv-read runs many more of them than
   kv-write, whose cycles also write and read back 512 keys. *)
let setups = 6
let recoveries = 16
let kr_recoveries = 48

(* kv-read *)
let kr_keys = 16384
let kr_mix = { Load.p_get = 90; p_put = 5; p_del = 3 }

(* kv-write.  It starts with half its keyspace bound (about its steady
   state under the 30/20 PUT/DEL mix); each recovery cycle logs
   exactly [post_writes] records. *)
let kw_keys = 4096
let kw_clients = 2
let kw_mix = { Load.p_get = 40; p_put = 30; p_del = 20 }
let kw_prefill = Array.init (kw_keys / 2) Fun.id
let post_writes = 512

(* map-churn: rounds of fixed work. *)
let mc_keys = 16384
let mc_budget = 150_000
let mc_mix = { Load.p_get = 20; p_put = 40; p_del = 40 }

(* Requests in flight in bulk phases.  The unix transport gets one:
   kvd's epoll loop with a WAL has been seen to stop answering a
   connection that pipelines writes (the reply never comes), so bulk
   phases there stay closed-loop like the timed phase. *)
let shm_window = 32
let unix_window = 1

(* Closed-loop kv clients stay far below 100k op/s; past the cap the
   first [cap] samples are kept. *)
let sample_cap seconds = max 65536 (int_of_float (seconds *. 100_000.0))

(* ------------------------------------------------------------------ *)
(* Run-wide accounting. *)

let attempted = ref 0
let stage = ref "start"
let at p = stage := p
let failed = ref 0
let wrong = ref 0
let why = ref ""

let account (cl : Load.client) =
  attempted := !attempted + cl.ok + cl.failed + cl.wrong;
  failed := !failed + cl.failed + cl.wrong;
  wrong := !wrong + cl.wrong;
  if !why = "" && cl.why <> "" then why := cl.why

let fail_check ?(n = 1) msg =
  wrong := !wrong + n;
  failed := !failed + n;
  if !why = "" then why := msg

let us ns = float ns /. 1e3
let secs ns = float ns /. 1e9

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let p50 s = Load.pct (Load.sorted s) 0.50
let fst3 (a, _, _) = a
let snd3 (_, b, _) = b
let thd3 (_, _, c) = c

(* Interquartile mean: the mean of the middle half, a quarter (rounded
   up) cut from each end.  Like the median it ignores outliers; unlike
   the median it does not jump between two modes of similar weight. *)
let iqm l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  let cut = (n + 3) / 4 in
  if n <= 2 then median l
  else Array.fold_left ( +. ) 0.0 (Array.sub a cut (n - (2 * cut))) /. float (n - (2 * cut))

(* Interquartile mean over the calmer half of the samples: each sample
   comes with the host CPU time stolen while it was taken, and the half
   with the least steal is kept, together with every sample that stole
   no more than the last one kept (when nothing is stolen, all are
   kept).  A stretch in which another tenant holds the cores then moves
   the figure only if it covers most of the run. *)
let calm samples =
  let a = Array.of_list samples in
  Array.stable_sort (fun (_, s1) (_, s2) -> compare s1 s2) a;
  let limit = snd a.((Array.length a - 1) / 2) in
  iqm (List.filter_map (fun (v, st) -> if st <= limit then Some v else None) samples)

let rm_rf path =
  if Sys.file_exists path then
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote path)))

(* ------------------------------------------------------------------ *)
(* Metrics. *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* A kv timed phase is cut into windows of about a second; each
   end-to-end figure is computed per window and the run reports [calm]
   over the windows of all its timed phases. *)
type phase = {
  clients : (Load.client * Load.marks) list;
  nwin : int;
  window_ns : int;
  cpu : float array;  (** daemon CPU seconds at each window's end *)
  cpu0 : float;  (** ... and at the phase start *)
  steal : int array;  (** host steal at each window's end *)
  steal0 : int;
}

let windows seconds =
  let nwin = max 2 (int_of_float (Float.round seconds)) in
  (nwin, int_of_float (seconds *. 1e9 /. float nwin))

let win_samples ph ~writes i =
  let parts =
    List.map
      (fun ((cl : Load.client), (mk : Load.marks)) ->
        let s = if writes then cl.writes else cl.gets in
        let ends = if writes then mk.m_writes else mk.m_gets in
        let lo = if i = 0 then 0 else ends.(i - 1) in
        Array.sub s.a lo (ends.(i) - lo))
      ph.clients
  in
  let a = Array.concat parts in
  Array.sort compare a;
  a

let win_ok ph i =
  List.fold_left
    (fun acc (_, (mk : Load.marks)) ->
      acc + mk.m_ok.(i) - if i = 0 then 0 else mk.m_ok.(i - 1))
    0 ph.clients

let per_window phs f =
  calm
    (List.concat_map
       (fun ph ->
         List.init ph.nwin (fun i ->
             (f ph i, ph.steal.(i) - if i = 0 then ph.steal0 else ph.steal.(i - 1))))
       phs)

let latency_metrics phs =
  let mean ~writes =
    per_window phs (fun ph i -> Load.mean90 (win_samples ph ~writes i) /. 1e3)
  in
  [
    m "get_mean90_us" "us" (mean ~writes:false);
    m "write_mean90_us" "us" (mean ~writes:true);
    m "kops" "kop/s"
      (per_window phs (fun ph i -> float (win_ok ph i) /. secs ph.window_ns /. 1e3));
  ]

let cpu_per_kop phs =
  per_window phs (fun ph i ->
      let c0 = if i = 0 then ph.cpu0 else ph.cpu.(i - 1) in
      (ph.cpu.(i) -. c0) *. 1e3 /. (float (max 1 (win_ok ph i)) /. 1e3))

(* Pooled p50s over whole phases, for the trace bookkeeping. *)
let pooled phs ~writes =
  Load.merge
    (List.concat_map
       (fun ph ->
         List.map
           (fun ((cl : Load.client), _) -> if writes then cl.writes else cl.gets)
           ph.clients)
       phs)

let all_p50 phs =
  p50 (Load.merge [ pooled phs ~writes:false; pooled phs ~writes:true ])

(* ------------------------------------------------------------------ *)
(* Trace probes.  A wrapped Shard.t stamps service entry and exit per
   client stripe; the client reads the stamps after its reply lands
   (one request in flight per client, so a stripe's stamps belong to
   its client's current op). *)

type asamples = { aa : int array; idx : int Atomic.t }

let asamples cap = { aa = Array.make cap 0; idx = Atomic.make 0 }

let aadd s v =
  let i = Atomic.fetch_and_add s.idx 1 in
  if i < Array.length s.aa then s.aa.(i) <- v

let of_atomic s =
  let n = min (Atomic.get s.idx) (Array.length s.aa) in
  { Load.a = Array.sub s.aa 0 n; n }

let t_entry = Array.init kw_clients (fun _ -> Atomic.make 0)
let t_exit = Array.init kw_clients (fun _ -> Atomic.make 0)

let stripe_of ~nstripes = function
  | Codec.Get k | Codec.Del k -> k mod nstripes
  | Codec.Put { key; _ } | Codec.Cas { key; _ } -> key mod nstripes
  | _ -> 0

type svc_probe = {
  wait : asamples;  (** submit -> reply callback *)
  zc_get : Load.samples;  (** mux domain only *)
  bracket : Load.samples;  (** mux domain only *)
  mutable enter_ns : int;
}

let wrap_svc ~nstripes ~cap (svc : Shard.t) =
  let p =
    {
      wait = asamples cap;
      zc_get = Load.samples cap;
      bracket = Load.samples cap;
      enter_ns = 0;
    }
  in
  let submit ~tid req cb =
    let s = stripe_of ~nstripes req in
    let t0 = Wire.now () in
    Atomic.set t_entry.(s) t0;
    svc.submit ~tid req (fun r ->
        let t1 = Wire.now () in
        aadd p.wait (t1 - t0);
        Atomic.set t_exit.(s) t1;
        cb r)
  in
  let zc_enter ~slot =
    let t0 = Wire.now () in
    Atomic.set t_entry.(0) t0;
    svc.zc_enter ~slot;
    p.enter_ns <- Wire.now () - t0
  in
  let zc_get ~slot k =
    let t0 = Wire.now () in
    let v = svc.zc_get ~slot k in
    Load.add p.zc_get (Wire.now () - t0);
    v
  in
  let zc_leave ~slot =
    let t0 = Wire.now () in
    svc.zc_leave ~slot;
    let t1 = Wire.now () in
    Load.add p.bracket (p.enter_ns + (t1 - t0));
    Atomic.set t_exit.(0) t1
  in
  ({ svc with submit; zc_enter; zc_get; zc_leave }, p)

(* Client side of the spans: transport in (send -> service entry) and
   out (service exit -> return), split by op class. *)
type span_probe = {
  in_get : Load.samples;
  out_get : Load.samples;
  in_all : Load.samples;
  out_all : Load.samples;
}

let span_probe cap =
  {
    in_get = Load.samples cap;
    out_get = Load.samples cap;
    in_all = Load.samples cap;
    out_all = Load.samples cap;
  }

let span_hook sp ~stripe : Load.hook =
 fun cls t0 t1 ->
  let i = Atomic.get t_entry.(stripe) - t0
  and o = t1 - Atomic.get t_exit.(stripe) in
  Load.add sp.in_all i;
  Load.add sp.out_all o;
  if cls = 0 then begin
    Load.add sp.in_get i;
    Load.add sp.out_get o
  end

type wal_probe = {
  syncs : asamples;
  bytes : int Atomic.t;
  nsync : int Atomic.t;
  source_ns : int Atomic.t;
}

let wrap_store ~cap (s : Replica.Store.t) =
  let p =
    {
      syncs = asamples cap;
      bytes = Atomic.make 0;
      nsync = Atomic.make 0;
      source_ns = Atomic.make 0;
    }
  in
  let s_append name =
    let w = s.s_append name in
    {
      w with
      Replica.Store.w_append =
        (fun str ->
          ignore (Atomic.fetch_and_add p.bytes (String.length str));
          w.w_append str);
      w_sync =
        (fun () ->
          let t0 = Wire.now () in
          w.w_sync ();
          aadd p.syncs (Wire.now () - t0);
          Atomic.incr p.nsync);
    }
  in
  let s_source name =
    let t0 = Wire.now () in
    let read, close = s.s_source name in
    ignore (Atomic.fetch_and_add p.source_ns (Wire.now () - t0));
    ( (fun b off len ->
        let t0 = Wire.now () in
        let n = read b off len in
        ignore (Atomic.fetch_and_add p.source_ns (Wire.now () - t0));
        n),
      close )
  in
  ({ s with s_append; s_source }, p)

(* ------------------------------------------------------------------ *)
(* Shared pieces of the kv workloads. *)

let kvd_args ~sock =
  [
    "--scheme"; scheme; "--ds"; structure; "--shards"; string_of_int shards;
    "--clients"; string_of_int slots; "--socket"; sock;
  ]

let service_config ~zc =
  {
    Shard.default_config with
    Shard.shards;
    clients = slots;
    zc_readers = (if zc then 1 else 0);
  }

let registry () =
  ( Workload.Registry.find_structure structure,
    Workload.Registry.find_scheme scheme )

let all_keys n = Array.init n Fun.id

(* A throwaway client over [conn] for bulk phases against [model]. *)
let bulk ~conn ~model = Load.client ~conn ~ops:[||] ~model ~cap:1 ()

let prefill ~conn ~model ~keys ~window =
  let cl = bulk ~conn ~model in
  Load.pipeline cl ~keys ~write:true ~window;
  account cl

let readback ~conn ~model ~keys ~window =
  let cl = bulk ~conn ~model in
  Load.pipeline cl ~keys ~write:false ~window;
  account cl

let kr_stream ~seed =
  Load.stream ~seed ~dist:(Workload.Keydist.zipf ~range:kr_keys ()) ~mix:kr_mix
    ~stripe:0 ~nstripes:1

let kw_stream ~seed ~c =
  Load.stream ~seed:(seed + (7919 * c))
    ~dist:(Workload.Keydist.uniform ~range:(kw_keys / kw_clients))
    ~mix:kw_mix ~stripe:c ~nstripes:kw_clients

(* The closed loop of [kw_clients] clients, each on its own domain
   with its own connection and key stripe; meanwhile the main domain
   samples [cpu] at every window's end. *)
let kw_timed ~connect ~model ~streams ~seconds ~cap ~hook ~cpu =
  let nwin, window_ns = windows seconds in
  (* Start the windows once both clients have had time to connect. *)
  let t0 = Wire.now () + 50_000_000 in
  let cpu0 = cpu () and steal0 = Daemon.steal () in
  let steal = Array.make nwin 0 in
  let doms =
    List.init kw_clients (fun c ->
        Domain.spawn (fun () ->
            let conn = connect () in
            let cl =
              Load.client ~hook:(hook c) ~conn ~ops:streams.(c) ~model ~cap ()
            in
            let mk =
              Fun.protect
                ~finally:(fun () -> conn.close ())
                (fun () -> Load.run_windows cl ~t0 ~window_ns ~nwin)
            in
            (cl, mk)))
  in
  let cpus =
    Array.init nwin (fun i ->
        let dt = float (t0 + ((i + 1) * window_ns) - Wire.now ()) /. 1e9 in
        if dt > 0.0 then Unix.sleepf dt;
        steal.(i) <- Daemon.steal ();
        cpu ())
  in
  let clients = List.map Domain.join doms in
  List.iter (fun (cl, _) -> account cl) clients;
  { clients; nwin; window_ns; cpu = cpus; cpu0; steal; steal0 }

(* ------------------------------------------------------------------ *)
(* kv-read against a kvd child: shm transport, no WAL, one client. *)

type ext = {
  e_metrics : metric list;
  e_all_p50 : int;
  e_idle_cpu_pct : float;
  e_replayed : int;
  e_recover_s : float;
  e_gen_words_per_op : float;
}

let idle_probe pid =
  Unix.sleepf 0.3;
  let c0 = Daemon.cpu_s pid and t0 = Unix.gettimeofday () in
  Unix.sleepf 1.0;
  let c1 = Daemon.cpu_s pid and t1 = Unix.gettimeofday () in
  100.0 *. (c1 -. c0) /. (t1 -. t0)

let kv_read_ext ~kvd ~dir ~seed ~seconds ~idle =
  let sock = Filename.concat dir "kr.sock" in
  let args = [ "--transport"; "shm" ] @ kvd_args ~sock in
  let log = Filename.concat dir "kr.log" in
  let model = Array.make kr_keys Load.absent in
  let keys = all_keys kr_keys in
  let idle_pct = ref 0.0 in
  let setup_s = ref [] in
  let d = ref None in
  for i = 1 to setups do
    Option.iter Daemon.stop !d;
    Array.fill model 0 kr_keys Load.absent;
    let t0 = Wire.now () and st0 = Daemon.steal () in
    let x = Daemon.spawn ~exe:kvd ~args ~log in
    d := Some x;
    Daemon.wait_ready x;
    let t1 = Wire.now () in
    if idle && i = setups then idle_pct := idle_probe x.pid;
    let t2 = Wire.now () in
    at "kv-read prefill";
    let conn = Wire.shm_connect sock in
    prefill ~conn ~model ~keys ~window:shm_window;
    conn.close ();
    setup_s :=
      (secs (t1 - t0 + (Wire.now () - t2)), Daemon.steal () - st0) :: !setup_s
  done;
  let d = Option.get !d in
  let ops = kr_stream ~seed in
  at "kv-read timed";
  let conn = Wire.shm_connect sock in
  let cl =
    Load.client ~conn ~ops ~model ~cap:(sample_cap seconds) ()
  in
  let nwin, window_ns = windows seconds in
  let cpu = Array.make nwin 0.0 and steal = Array.make nwin 0 in
  let cpu0 = Daemon.cpu_s d.pid and steal0 = Daemon.steal () in
  let w0 = Gc.minor_words () in
  let t0 = Wire.now () in
  let mk =
    Load.run_windows cl ~t0 ~window_ns ~nwin ~on_window:(fun i ->
        cpu.(i) <- Daemon.cpu_s d.pid;
        steal.(i) <- Daemon.steal ())
  in
  let words = Gc.minor_words () -. w0 in
  let rss = Daemon.hwm_mb d.pid in
  conn.close ();
  account cl;
  let ph = { clients = [ (cl, mk) ]; nwin; window_ns; cpu; cpu0; steal; steal0 } in
  (* Restart after SIGKILL: the dead daemon's rings and FIFO are swept
     by the new one; without a WAL it serves an empty map. *)
  let rec_s = ref [] in
  let d = ref d in
  for _ = 1 to kr_recoveries do
    let t0 = Wire.now () and st0 = Daemon.steal () in
    Daemon.kill9 !d;
    let x = Daemon.spawn ~exe:kvd ~args ~log in
    d := x;
    Daemon.wait_ready x;
    rec_s := (secs (Wire.now () - t0), Daemon.steal () - st0) :: !rec_s
  done;
  Array.fill model 0 kr_keys Load.absent;
  at "kv-read readback";
  let conn = Wire.shm_connect sock in
  readback ~conn ~model ~keys ~window:shm_window;
  conn.close ();
  Daemon.stop !d;
  let recover_s = calm !rec_s in
  {
    e_metrics =
      [ m "setup_s" "s" (calm !setup_s) ]
      @ latency_metrics [ ph ]
      @ [
          m "cpu_ms_per_kop" "ms" (cpu_per_kop [ ph ]);
          m "rss_mb" "MB" rss;
          m "recover_s" "s" recover_s;
        ];
    e_all_p50 = all_p50 [ ph ];
    e_idle_cpu_pct = !idle_pct;
    e_replayed = 0;
    e_recover_s = recover_s;
    e_gen_words_per_op = words /. float (max 1 (cl.ok + cl.failed + cl.wrong));
  }

(* ------------------------------------------------------------------ *)
(* kv-write against a kvd child: unix socket, epoll loop, WAL.  The
   run is two halves of the same shape, so that a stretch of a few
   seconds in which other tenants hold the host's cores or disk covers
   at most part of each figure's samples.  A half: [setups / 2] timed
   set-ups (the last daemon is kept), a timed phase of half the
   seconds, a graceful stop (which snapshots, emptying the log), then
   per recovery cycle a restart, exactly [post_writes] acked writes,
   SIGKILL, and a timed restart that must replay exactly those writes,
   after which every written key is read back.  No value is written
   twice in a run (see Load), so a write lost in any cycle reads back
   wrong.  Last, every key is read back. *)

let kv_write_ext ~kvd ~dir ~seed ~seconds =
  let sock = Filename.concat dir "kw.sock" in
  let wal = Filename.concat dir "wal" in
  let log = Filename.concat dir "kw.log" in
  let args =
    [ "--transport"; "unix"; "--loop"; "epoll"; "--wal"; wal ] @ kvd_args ~sock
  in
  let model = Array.make kw_keys Load.absent in
  let setup_s = ref [] and rec_s = ref [] and replayed = ref 0 in
  (* One timed set-up: a daemon on an empty log, prefilled. *)
  let fresh () =
    rm_rf wal;
    Array.fill model 0 kw_keys Load.absent;
    let t0 = Wire.now () and st0 = Daemon.steal () in
    let x = Daemon.spawn ~exe:kvd ~args ~log in
    Daemon.wait_ready x;
    at "kv-write prefill";
    let conn = Wire.unix_connect sock in
    prefill ~conn ~model ~keys:kw_prefill ~window:unix_window;
    conn.close ();
    setup_s := (secs (Wire.now () - t0), Daemon.steal () - st0) :: !setup_s;
    x
  in
  let post = Array.init post_writes (fun i -> i * (kw_keys / post_writes)) in
  let half h =
    for _ = 2 to setups / 2 do
      Daemon.stop (fresh ())
    done;
    let d = fresh () in
    let streams = Array.init kw_clients (fun c -> kw_stream ~seed:(seed + h) ~c) in
    at "kv-write timed";
    let ph =
      kw_timed
        ~connect:(fun () -> Wire.unix_connect sock)
        ~model ~streams ~seconds:(seconds /. 2.0) ~cap:(sample_cap seconds)
        ~hook:(fun _ -> Load.no_hook)
        ~cpu:(fun () -> Daemon.cpu_s d.pid)
    in
    let rss = Daemon.hwm_mb d.pid in
    Daemon.stop d;
    let y = ref None in
    for i = 1 to recoveries / 2 do
      let x = Daemon.spawn ~exe:kvd ~args ~log in
      Daemon.wait_ready x;
      at (Printf.sprintf "kv-write post-phase writes %d.%d" h i);
      let conn = Wire.unix_connect sock in
      prefill ~conn ~model ~keys:post ~window:unix_window;
      conn.close ();
      let t0 = Wire.now () and st0 = Daemon.steal () in
      Daemon.kill9 x;
      let z = Daemon.spawn ~exe:kvd ~args ~log in
      y := Some z;
      Daemon.wait_ready z;
      rec_s := (secs (Wire.now () - t0), Daemon.steal () - st0) :: !rec_s;
      let r = Daemon.replayed z in
      replayed := r;
      if r <> post_writes then
        fail_check
          (Printf.sprintf "recovery %d.%d replayed %d records, expected %d" h i r
             post_writes);
      at (Printf.sprintf "kv-write recovery read-back %d.%d" h i);
      let conn = Wire.unix_connect sock in
      readback ~conn ~model ~keys:post ~window:unix_window;
      conn.close ();
      if i < recoveries / 2 then Daemon.stop z
    done;
    let y = Option.get !y in
    at "kv-write readback";
    let conn = Wire.unix_connect sock in
    readback ~conn ~model ~keys:(all_keys kw_keys) ~window:unix_window;
    conn.close ();
    Daemon.stop y;
    (ph, rss)
  in
  let ph1, rss1 = half 1 in
  let ph2, rss2 = half 2 in
  rm_rf wal;
  let phs = [ ph1; ph2 ] in
  let recover_s = calm !rec_s in
  {
    e_metrics =
      [ m "setup_s" "s" (calm !setup_s) ]
      @ latency_metrics phs
      @ [
          m "cpu_ms_per_kop" "ms" (cpu_per_kop phs);
          m "rss_mb" "MB" ((rss1 +. rss2) /. 2.0);
          m "recover_s" "s" recover_s;
        ];
    e_all_p50 = all_p50 phs;
    e_idle_cpu_pct = 0.0;
    e_replayed = !replayed;
    e_recover_s = recover_s;
    e_gen_words_per_op = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* The same stacks in-process, optionally traced. *)

type inproc = { i_p50 : int; i_layers : metric list }

let kv_read_inproc ~dir ~seed ~seconds ~traced =
  let sock = Filename.concat dir "ikr.sock" in
  let structure, scheme = registry () in
  let svc = Shard.create ~structure ~scheme (service_config ~zc:true) in
  let cap = sample_cap seconds in
  (* Probe arrays are sized for a traced run only. *)
  let pcap = if traced then cap else 1 in
  let svc', probe = wrap_svc ~nstripes:1 ~cap:pcap svc in
  let srv = Service.Shm_conn.serve (if traced then svc' else svc) ~path:sock () in
  let model = Array.make kr_keys Load.absent in
  let conn = Wire.shm_connect sock in
  prefill ~conn ~model ~keys:(all_keys kr_keys) ~window:shm_window;
  let sp = span_probe pcap in
  let hook = if traced then span_hook sp ~stripe:0 else Load.no_hook in
  let cl = Load.client ~hook ~conn ~ops:(kr_stream ~seed) ~model ~cap () in
  let nwin, window_ns = windows seconds in
  ignore (Load.run_windows cl ~t0:(Wire.now ()) ~window_ns ~nwin);
  conn.close ();
  account cl;
  Service.Shm_conn.shutdown srv;
  svc.stop ();
  let get_p50 = p50 cl.gets in
  let layers =
    if not traced then []
    else
      let in_g = p50 sp.in_get and out_g = p50 sp.out_get in
      let zc = p50 probe.zc_get and br = p50 probe.bracket in
      [
        m "shm_conn.in_us" "us" (us in_g);
        m "shm_conn.out_us" "us" (us out_g);
        m "shard.zc_get_ns" "ns" (float zc);
        m "shard.zc_bracket_ns" "ns" (float br);
        m "trace.kv-read.residual_pct" "%"
          (100.0 *. float (get_p50 - (in_g + zc + br + out_g)) /. float get_p50);
      ]
      @
      let w = Load.sorted (of_atomic probe.wait) in
      [
        m "kv-read.shard.wait_p50_us" "us" (us (Load.pct w 0.50));
        m "kv-read.shard.wait_p99_us" "us" (us (Load.pct w 0.99));
      ]
  in
  { i_p50 = p50 (Load.merge [ cl.gets; cl.writes ]); i_layers = layers }

let kv_write_inproc ~dir ~seed ~seconds ~traced =
  let sock = Filename.concat dir "ikw.sock" in
  let wal = Filename.concat dir "iwal" in
  rm_rf wal;
  let structure, scheme = registry () in
  let cap = sample_cap seconds in
  let pcap = if traced then cap else 1 in
  let fs = Replica.Store.fs ~dir:wal in
  let wrapped, wp = wrap_store ~cap:pcap fs in
  let store = if traced then wrapped else fs in
  let p, _ =
    Replica.Primary.create ~structure ~scheme (service_config ~zc:false) ~store
      ()
  in
  let svc', probe = wrap_svc ~nstripes:kw_clients ~cap:pcap p.svc in
  let srv =
    Service.Conn.serve_unix
      (if traced then svc' else p.svc)
      ~path:sock
      ~ext:(Replica.Primary.handle p)
      ~backend:(`Evloop `Epoll) ()
  in
  let model = Array.make kw_keys Load.absent in
  let conn = Wire.unix_connect sock in
  prefill ~conn ~model ~keys:kw_prefill ~window:unix_window;
  conn.close ();
  let bytes0 = Atomic.get wp.bytes and sync0 = Atomic.get wp.nsync in
  Atomic.set wp.syncs.idx 0;
  let sps = Array.init kw_clients (fun _ -> span_probe pcap) in
  let hook c = if traced then span_hook sps.(c) ~stripe:c else Load.no_hook in
  let ph =
    kw_timed
      ~connect:(fun () -> Wire.unix_connect sock)
      ~model
      ~streams:(Array.init kw_clients (fun c -> kw_stream ~seed ~c))
      ~seconds ~cap ~hook
      ~cpu:(fun () -> 0.0)
  in
  let bytes = Atomic.get wp.bytes - bytes0 and nsync = Atomic.get wp.nsync - sync0 in
  Service.Conn.shutdown srv;
  for shard = 0 to shards - 1 do
    ignore (Replica.Primary.snapshot_shard p ~shard ())
  done;
  let run_len = Obs.Hist.mean p.svc.batch_hist in
  Replica.Primary.stop p;
  let layers =
    if not traced then []
    else begin
      (* Boot again from the snapshot just published, timing the store's
         streaming reads. *)
      Atomic.set wp.source_ns 0;
      let p2, _ =
        Replica.Primary.create ~structure ~scheme (service_config ~zc:false)
          ~store ()
      in
      let load_ns = Atomic.get wp.source_ns in
      Replica.Primary.stop p2;
      let acked = (pooled [ ph ] ~writes:true).n in
      let sp = Array.to_list sps in
      let in_all = Load.merge (List.map (fun s -> s.in_all) sp)
      and out_all = Load.merge (List.map (fun s -> s.out_all) sp) in
      let w = Load.sorted (of_atomic probe.wait) in
      let s = Load.sorted (of_atomic wp.syncs) in
      let e2e = all_p50 [ ph ] in
      let i = p50 in_all and o = p50 out_all and wt = Load.pct w 0.50 in
      [
        m "conn.in_us" "us" (us i);
        m "conn.out_us" "us" (us o);
        m "kv-write.shard.wait_p50_us" "us" (us wt);
        m "kv-write.shard.wait_p99_us" "us" (us (Load.pct w 0.99));
        m "shard.run_len" "requests" run_len;
        m "wal.sync_p50_us" "us" (us (Load.pct s 0.50));
        m "wal.sync_p99_us" "us" (us (Load.pct s 0.99));
        m "wal.writes_per_sync" "writes" (float acked /. float (max 1 nsync));
        m "wal.bytes_per_write" "B" (float bytes /. float (max 1 acked));
        m "snapshot.load_s" "s" (secs load_ns);
        m "trace.kv-write.residual_pct" "%"
          (100.0 *. float (e2e - (i + wt + o)) /. float e2e);
      ]
    end
  in
  rm_rf wal;
  { i_p50 = all_p50 [ ph ]; i_layers = layers }

(* ------------------------------------------------------------------ *)
(* map-churn: the hashmap under Hyaline-S in-process, with the paper's
   SMR parameters, one round after another until --seconds are up.  A
   round builds a fresh map and binds half its keyspace (the set-up,
   timed).  The round's domain then enters a bracket, reads once, and
   blocks joining two worker domains that each run a fixed budget of
   ops: it is the stalled reader.  Still inside its bracket it reads
   the retired-but-unfreed backlog, then leaves; the time its leave
   takes (reclaiming what it pinned) is the round's recovery.

   Each round runs in a process of its own, forked from this one, so
   every round is the same fixed work from the same start.  In one
   process rounds slow down one after another (kop/s fell by a third
   over 11 rounds): a dropped map is never reclaimed, because the
   global header registry keeps its live nodes and through them its
   pool, so the heap grows by a map per round.  A long-lived map is no
   way out: its pool slows down round after round as well (see
   README.md). *)

type churn = {
  c_metrics : metric list;
  c_layers : metric list;
}

(* The figures a round reports, in this order. *)
let rc_setup = 0
let rc_get = 1
let rc_write = 2
let rc_kops = 3
let rc_cpu = 4
let rc_leave = 5
let rc_rss = 6
let rc_unreclaimed = 7
let rc_retires = 8
let rc_frees = 9
let rc_created = 10
let rc_bad = 11
let rc_bracket_ns = 12
let rc_insert_ns = 13
let rc_remove_ns = 14
let rc_get_ns = 15
let rc_peak = 16
let rc_words = 17
let rc_count = 18

(* [f ()] in a forked child; its figures come back over a pipe. *)
let in_child f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let code =
        match f () with
        | row ->
            Array.iter (Printf.fprintf oc "%.17g\n") row;
            0
        | exception e ->
            Printf.eprintf "bench: map-churn round: %s\n%!" (Printexc.to_string e);
            2
      in
      close_out oc;
      Unix._exit code
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let row = In_channel.input_lines ic in
      close_in ic;
      (match Daemon.waitpid_eintr [] pid with
      | _, Unix.WEXITED 0 when List.length row = rc_count -> ()
      | _ -> failwith "map-churn round failed");
      Array.of_list (List.map float_of_string row)

let map_churn ~seed ~seconds ~traced =
  let structure, scheme = registry () in
  let module M = (val Workload.Registry.make_map structure scheme) in
  let cfg = Smr.Config.paper ~nthreads:3 in
  let rng = Prims.Rng.create ~seed in
  let live = Array.init (mc_keys / 2) (fun _ -> Prims.Rng.below rng mc_keys) in
  let build () =
    let mp = M.create ~seed ~cfg () in
    Array.iter
      (fun k ->
        M.enter mp ~tid:0;
        ignore (M.insert mp ~tid:0 k k);
        M.leave mp ~tid:0)
      live;
    mp
  in
  let streams =
    Array.init 2 (fun w ->
        Load.stream ~seed:(seed + (104729 * (w + 1)))
          ~dist:(Workload.Keydist.uniform ~range:mc_keys)
          ~mix:mc_mix ~stripe:0 ~nstripes:1)
  in
  (* 1 op in 8 is timed end to end (bracket included); traced runs
     also split 1 op in 32 into bracket and op. *)
  let cap = mc_budget in
  let arrays n = Array.init 2 (fun _ -> Load.samples (if n then cap else 1)) in
  let gets = arrays true and writes = arrays true in
  let brk = arrays traced and ins = arrays traced in
  let rem = arrays traced and get = arrays traced in
  let words = Array.make 2 0.0 in
  (* Every binding is k -> k, so every value a get returns is checked;
     a mismatch is counted per worker. *)
  let bad = Array.make 2 0 in
  let peak = Atomic.make 0 in
  let[@inline] op mp ~tid kind k =
    if kind = Load.kind_get then begin
      match M.get mp ~tid k with
      | Some v when v <> k -> bad.(tid) <- bad.(tid) + 1
      | _ -> ()
    end
    else if kind = Load.kind_put then ignore (M.insert mp ~tid k k)
    else ignore (M.remove mp ~tid k)
  in
  let worker mp w () =
    let ops = streams.(w) and tid = w in
    let w0 = Gc.minor_words () and c0 = Daemon.thread_cpu_s () in
    let t_start = Wire.now () in
    for i = 1 to mc_budget do
      let o = Array.unsafe_get ops (i land (Load.stream_len - 1)) in
      let kind = o land 3 and k = o lsr 2 in
      if traced && i land 31 = 4 then begin
        let t0 = Wire.now () in
        M.enter mp ~tid;
        let t1 = Wire.now () in
        op mp ~tid kind k;
        let t2 = Wire.now () in
        M.leave mp ~tid;
        let t3 = Wire.now () in
        Load.add brk.(w) (t1 - t0 + (t3 - t2));
        Load.add
          (if kind = Load.kind_get then get.(w)
           else if kind = Load.kind_put then ins.(w)
           else rem.(w))
          (t2 - t1);
        if i land 1023 = 4 then begin
          let u = Smr.Stats.unreclaimed (M.stats mp) in
          if u > Atomic.get peak then Atomic.set peak u
        end
      end
      else if i land 7 = 0 then begin
        let t0 = Wire.now () in
        M.enter mp ~tid;
        op mp ~tid kind k;
        M.leave mp ~tid;
        Load.add (if kind = Load.kind_get then gets.(w) else writes.(w))
          (Wire.now () - t0)
      end
      else begin
        M.enter mp ~tid;
        op mp ~tid kind k;
        M.leave mp ~tid
      end
    done;
    let t_end = Wire.now () in
    words.(w) <- Gc.minor_words () -. w0;
    (t_start, t_end, Daemon.thread_cpu_s () -. c0)
  in
  (* One round, run in a child process whose main domain is the
     stalled reader. *)
  let reader = 2 in
  let round () =
    let t0 = Wire.now () in
    let mp = build () in
    let setup = secs (Wire.now () - t0) in
    M.enter mp ~tid:reader;
    let stall_bad =
      match M.get mp ~tid:reader live.(0) with Some v -> v <> live.(0) | None -> true
    in
    let spans =
      Array.map Domain.join
        (Array.init 2 (fun w -> Domain.spawn (worker mp w)))
    in
    let unreclaimed = Smr.Stats.unreclaimed (M.stats mp) in
    let t1 = Wire.now () in
    M.leave mp ~tid:reader;
    let leave = secs (Wire.now () - t1) in
    let check_bad = match M.check mp with () -> false | exception _ -> true in
    let s0 = min (fst3 spans.(0)) (fst3 spans.(1))
    and s1 = max (snd3 spans.(0)) (snd3 spans.(1)) in
    let cpu = thd3 spans.(0) +. thd3 spans.(1) in
    let ops = float (2 * mc_budget) in
    let merged a = Load.sorted (Load.merge (Array.to_list a)) in
    let p50 a = float (Load.pct (merged a) 0.50) in
    let st = Smr.Stats.snapshot (M.stats mp) in
    let row = Array.make rc_count 0.0 in
    let set i v = row.(i) <- v in
    set rc_setup setup;
    set rc_get (Load.mean90 (merged gets) /. 1e3);
    set rc_write (Load.mean90 (merged writes) /. 1e3);
    set rc_kops (ops /. secs (s1 - s0) /. 1e3);
    set rc_cpu (cpu *. 1e3 /. (ops /. 1e3));
    set rc_leave leave;
    set rc_rss (Daemon.hwm_mb (Unix.getpid ()));
    set rc_unreclaimed (float unreclaimed);
    set rc_retires (float st.retires);
    set rc_frees (float st.frees);
    set rc_created
      (float (Option.value ~default:0 (List.assoc_opt "mpool_created" (M.gauges mp))));
    set rc_bad
      (float (bad.(0) + bad.(1) + Bool.to_int stall_bad + Bool.to_int check_bad));
    set rc_bracket_ns (p50 brk);
    set rc_insert_ns (p50 ins);
    set rc_remove_ns (p50 rem);
    set rc_get_ns (p50 get);
    set rc_peak (float (max (Atomic.get peak) unreclaimed));
    set rc_words ((words.(0) +. words.(1)) /. ops);
    row
  in
  let deadline = Wire.now () + int_of_float (seconds *. 1e9) in
  (* One row per round, with the host steal the round saw. *)
  let rows = ref [] in
  while Wire.now () < deadline || List.length !rows < setups do
    let st0 = Daemon.steal () in
    let row = in_child round in
    rows := (row, Daemon.steal () - st0) :: !rows;
    let n = int_of_float row.(rc_bad) in
    if n > 0 then fail_check ~n (Printf.sprintf "map-churn: %d wrong reads or checks" n)
  done;
  let rounds = List.length !rows in
  attempted := !attempted + (rounds * ((2 * mc_budget) + Array.length live));
  (* Every figure is the median of the calmer rounds. *)
  let col i = calm (List.map (fun (row, st) -> (row.(i), st)) !rows) in
  let all i = List.map (fun (row, _) -> row.(i)) !rows in
  let sum i = List.fold_left ( +. ) 0.0 (all i) in
  let c_metrics =
    [
      m "setup_s" "s" (col rc_setup);
      m "get_mean90_us" "us" (col rc_get);
      m "write_mean90_us" "us" (col rc_write);
      m "kops" "kop/s" (col rc_kops);
      m "cpu_ms_per_kop" "ms" (col rc_cpu);
      m "rss_mb" "MB" (col rc_rss);
      m "recover_s" "s" (col rc_leave);
    ]
  in
  let c_layers =
    if not traced then []
    else
      [
        m "smr.bracket_ns" "ns" (col rc_bracket_ns);
        m "dstruct.insert_ns" "ns" (col rc_insert_ns);
        m "dstruct.remove_ns" "ns" (col rc_remove_ns);
        m "dstruct.get_ns" "ns" (col rc_get_ns);
        m "smr.frees_per_retire" "ratio" (sum rc_frees /. Float.max 1.0 (sum rc_retires));
        m "smr.unreclaimed" "nodes" (median (all rc_unreclaimed));
        m "smr.unreclaimed_peak" "nodes" (List.fold_left Float.max 0.0 (all rc_peak));
        m "mpool.created" "nodes" (median (all rc_created));
        m "gc.minor_words_per_op" "words" (median (all rc_words));
      ]
  in
  { c_metrics; c_layers }

(* ------------------------------------------------------------------ *)
(* Codec cost, timed through the library's own encode and decode. *)

let codec_ns () =
  let reps = 200_000 in
  let buf = Buffer.create 64 in
  let time f =
    let runs =
      List.init 7 (fun _ ->
          let t0 = Wire.now () in
          for i = 1 to reps do
            f i
          done;
          float (Wire.now () - t0) /. float reps)
    in
    median runs
  in
  let enc =
    time (fun i ->
        Buffer.clear buf;
        Codec.encode_request buf (Codec.Get (Sys.opaque_identity i)))
  in
  Buffer.clear buf;
  Codec.encode_reply buf (Codec.Value 123456789);
  let frame = Buffer.to_bytes buf in
  let payload = Bytes.sub frame 4 (Bytes.length frame - 4) in
  let dec =
    time (fun _ -> ignore (Sys.opaque_identity (Codec.reply_of_payload payload)))
  in
  [ m "codec.encode_ns" "ns" enc; m "codec.decode_ns" "ns" dec ]

(* ------------------------------------------------------------------ *)
(* Traced run: every layer of every stack, the run's own workload at
   full length and the others briefly, so each per-layer metric is
   measured in every traced run. *)

let pct_gap a b = 100.0 *. float (a - b) /. float (max 1 b)

let trace ~kvd ~dir ~seed ~seconds ~workload =
  let long = seconds *. 0.4 and short = Float.max 1.0 (seconds *. 0.1) in
  let len w = if w = workload then long else short in
  (* map-churn first: it forks, which a process that has ever spawned
     a domain may not. *)
  let mc = map_churn ~seed ~seconds:(len "map-churn") ~traced:true in
  let kr = kv_read_ext ~kvd ~dir ~seed ~seconds:short ~idle:true in
  let kr_plain = kv_read_inproc ~dir ~seed ~seconds:short ~traced:false in
  let kr_tr = kv_read_inproc ~dir ~seed ~seconds:(len "kv-read") ~traced:true in
  let kw = kv_write_ext ~kvd ~dir ~seed ~seconds:short in
  let kw_plain = kv_write_inproc ~dir ~seed ~seconds:short ~traced:false in
  let kw_tr = kv_write_inproc ~dir ~seed ~seconds:(len "kv-write") ~traced:true in
  let wait name =
    (* shard.wait_* on this run's own kv stack; map-churn crosses no
       shard and reports the kv-write stack's. *)
    let own = if workload = "kv-read" then kr_tr else kw_tr in
    let prefix = if workload = "kv-read" then "kv-read." else "kv-write." in
    let x = List.find (fun x -> x.name = prefix ^ name) own.i_layers in
    { x with name }
  in
  let drop_prefixed l =
    List.filter
      (fun x ->
        not
          (String.starts_with ~prefix:"kv-read.shard" x.name
          || String.starts_with ~prefix:"kv-write.shard" x.name))
      l
  in
  [
    m "kvd.idle_cpu_pct" "%" kr.e_idle_cpu_pct;
    m "primary.replayed" "records" (float kw.e_replayed);
    m "primary.replay_us_per_record" "us"
      (kw.e_recover_s *. 1e6 /. float (max 1 kw.e_replayed));
    m "gen.minor_words_per_op" "words" kr.e_gen_words_per_op;
  ]
  @ codec_ns ()
  @ drop_prefixed kr_tr.i_layers
  @ drop_prefixed kw_tr.i_layers
  @ [ wait "shard.wait_p50_us"; wait "shard.wait_p99_us" ]
  @ mc.c_layers
  @ [
      m "trace.kv-read.overhead_pct" "%" (pct_gap kr_tr.i_p50 kr_plain.i_p50);
      m "trace.kv-read.inproc_gap_pct" "%" (pct_gap kr_plain.i_p50 kr.e_all_p50);
      m "trace.kv-write.overhead_pct" "%" (pct_gap kw_tr.i_p50 kw_plain.i_p50);
      m "trace.kv-write.inproc_gap_pct" "%"
        (pct_gap kw_plain.i_p50 kw.e_all_p50);
    ]

(* ------------------------------------------------------------------ *)

let json_metrics l =
  String.concat ", "
    (List.map
       (fun x ->
         Printf.sprintf "%S: {\"value\": %.12g, \"unit\": %S}" x.name x.value
           x.unit)
       l)

let main ~workload ~seed ~seconds ~trace_on ~kvd ~dir =
  Service.Conn.ignore_sigpipe ();
  (* SIGTERM exits through at_exit, which reaps the kvd children. *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 2));
  let metrics =
    if trace_on then trace ~kvd ~dir ~seed ~seconds ~workload
    else
      match workload with
      | "kv-read" ->
          (kv_read_ext ~kvd ~dir ~seed ~seconds ~idle:false).e_metrics
      | "kv-write" -> (kv_write_ext ~kvd ~dir ~seed ~seconds).e_metrics
      | "map-churn" -> (map_churn ~seed ~seconds ~traced:false).c_metrics
      | w -> failwith ("unknown workload " ^ w)
  in
  if !why <> "" then prerr_endline ("bench: first wrong reply: " ^ !why);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!wrong = 0) (max 1 !attempted) !failed (json_metrics metrics);
  if !wrong > 0 then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace_on = ref 0 and kvd = ref "" and dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "kv-read|kv-write|map-churn");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "timed-phase length");
      ("--trace", Arg.Set_int trace_on, "1 = per-layer run");
      ("--kvd", Arg.Set_string kvd, "path of kvd.exe");
      ("--dir", Arg.Set_string dir, "working directory for sockets and logs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --kvd PATH --dir D";
  if !dir = "" || !kvd = "" then failwith "--kvd and --dir are required";
  try
    main ~workload:!workload ~seed:!seed ~seconds:!seconds
      ~trace_on:(!trace_on = 1) ~kvd:!kvd ~dir:!dir
  with e ->
    Printf.eprintf "bench: %s failed: %s\n%!" !stage (Printexc.to_string e);
    exit 2
