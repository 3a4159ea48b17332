(* Benchmark harness.

   Part 1 — microbenchmarks, one group per quantitative claim of
   Table 1: the per-operation cost of retire, of an enter/leave
   bracket, and of a protected read, for every scheme.  Measured with
   a calibrated min-of-trials timer rather than OLS over raw samples:
   on shared/oversubscribed containers CPU steal inflates the mean by
   an order of magnitude and flips scheme orderings run to run, while
   the minimum over repeated fixed-size trials converges on the
   uncontended cost (the quantity Table 1 is about).

   Part 2 — the full figure suite (Figures 8-16 + Table 1 properties)
   at container scale, via the same Workload.Figures definitions as
   bin/experiments.exe.  Override the per-point duration with
   BENCH_DURATION (seconds) and the thread sweep with BENCH_THREADS
   (comma-separated). *)

(* ------------------------------------------------------------------ *)
(* Pool-backed block, as in the test suite. *)

module Blk = struct
  type t = { hdr : Smr.Hdr.t; index : int }

  let create ~index = { hdr = Smr.Hdr.create (); index }
  let index b = b.index
  let on_alloc b = Smr.Hdr.set_live b.hdr
  let on_free _ = ()
end

module Pool = Mpool.Make (Blk)

let cfg_bench = Smr.Config.paper ~nthreads:2

(* One tracked retire (enter; alloc; retire; leave), steady-state: the
   pool recycles, so reclamation work is included, amortized. *)
let retire_cost (module T : Smr.Tracker.S) =
  let t = T.create cfg_bench in
  let pool = Pool.create () in
  (fun () ->
      T.enter t ~tid:0;
      let b = Pool.alloc pool in
      b.Blk.hdr.Smr.Hdr.free_hook <- (fun () -> Pool.free pool b);
      T.alloc_hook t ~tid:0 b.Blk.hdr;
      T.retire t ~tid:0 b.Blk.hdr;
      T.leave t ~tid:0)

(* Bare bracket cost: what a read-only operation pays. *)
let bracket_cost (module T : Smr.Tracker.S) =
  let t = T.create cfg_bench in
  (fun () ->
      T.enter t ~tid:0;
      T.leave t ~tid:0)

(* One protected dereference inside a long-lived bracket. *)
let read_cost (module T : Smr.Tracker.S) =
  let t = T.create cfg_bench in
  let pool = Pool.create () in
  T.enter t ~tid:0;
  let b = Pool.alloc pool in
  T.alloc_hook t ~tid:0 b.Blk.hdr;
  let link = Atomic.make b in
  let proj (b : Blk.t) = b.Blk.hdr in
  (fun () -> ignore (T.read t ~tid:0 ~idx:0 link proj))

(* One row per registry scheme, named "table1/<group>/<scheme>" so the
   head-backend variants (dwcas vs llsc vs packed) sort side by side. *)
let scheme_rows group f =
  List.map
    (fun (s : Workload.Registry.scheme) ->
      ( "table1/" ^ group ^ "/" ^ s.Workload.Registry.s_name,
        f s.Workload.Registry.s_mod ))
    Workload.Registry.schemes

(* The transparency baseline: the same dereference with no tracker in
   the loop — one atomic load plus the projection.  Pairing this row
   with table1/read-cost/<scheme> measures the whole price of
   protection on the read path, Table 1's "transparent" column as a
   number: for Hyaline-family schemes the pair should be within a few
   ns (reads add no per-access bookkeeping), while LFRC's pair spreads
   by two atomic RMWs. *)
let plain_read_cost =
  let pool = Pool.create () in
  let b = Pool.alloc pool in
  let link = Atomic.make b in
  let proj (b : Blk.t) = b.Blk.hdr in
  (fun () -> ignore (Sys.opaque_identity (proj (Atomic.get link))))

(* LFRC's protected read: atomic bump + revalidate + atomic release —
   the "very slow (esp. reading)" row of Table 1, measured. *)
let lfrc_read_cost =
  let b = Smr.Lfrc.make_block 42 ~on_free:ignore in
  let cell = Smr.Lfrc.link (Some b) in
  (fun () ->
      match Smr.Lfrc.acquire cell with
      | Some b -> Smr.Lfrc.release b
      | None -> ())

(* Chaos hook overhead with chaos off — the zero-cost-when-disabled
   claim for Mpool.alloc, which pays one uncontended atomic load on
   the (empty) OOM budget (plain alloc/free has no hook-free baseline
   left, so the row is alloc/free with the budget at rest).  The
   write-frame row times a blocking client's framed write. *)

let mpool_alloc_disabled_hook_cost =
  let pool = Pool.create () in
  (fun () ->
      let b = Pool.alloc pool in
      Pool.free pool b)

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0)

let conn_write_frame_cost =
  let fd = Lazy.force devnull in
  let out = Buffer.create 32 in
  (fun () ->
      Service.Codec.encode_reply out (Service.Codec.Value 7);
      Service.Conn.write_frame fd out)

(* lib/replica: the record checksum.  The WAL group-commit and
   shard-call costs are per-layer metrics of perfbench's traced run
   (wal.sync_p50_us, shard.wait_p50_us and their kin). *)

let crc32_cost =
  let s = String.init 64 Char.chr in
  fun () -> ignore (Service.Codec.crc32 s ~pos:0 ~len:64)

(* ------------------------------------------------------------------ *)
(* lib/cluster placement costs: the per-request ring hash, the full
   virtual-node table build, and the ownership check + redirect a
   mis-routed request pays at a node before any shard is touched (the
   evloop pump answers it inline, so this is the whole server-side
   cost of a Moved bounce). *)

let ring_slot_cost =
  let k = ref 0 in
  fun () ->
    incr k;
    ignore (Sys.opaque_identity (Cluster.Ring.slot_of_key ~nslots:64 !k))

let ring_assign_cost () =
  ignore
    (Sys.opaque_identity
       (Cluster.Ring.assign ~seed:42 ~nslots:64 ~nodes:[ 0; 1; 2 ]))

let node_redirect_cost =
  let store, _ = Replica.Store.Mem.create () in
  let p, _ =
    Replica.Primary.create
      ~structure:(Workload.Registry.find_structure "hashmap")
      ~scheme:(Workload.Registry.find_scheme "hyaline")
      { Service.Shard.default_config with Service.Shard.shards = 1; clients = 2 }
      ~store ()
  in
  (* Every slot assigned to node 1 while this is node 0: every key
     bounces, so the loop measures check + Moved construction only. *)
  let node =
    Cluster.Node.create ~node_id:0 ~nslots:64 ~owners:(Array.make 64 1)
      ~apply_tid:1 p
  in
  fun () ->
    ignore
      (Sys.opaque_identity (Cluster.Node.handle node (Service.Codec.Get 7)))

(* ------------------------------------------------------------------ *)
(* lib/shm transport costs: the syscall-vs-memcpy substitution,
   measured in isolation.  Each row carries the same codec CAS frame
   across a process-boundary mechanism on one thread.  The ring row is
   try_send + pending + streaming decode + finish_msg over an
   in-memory ring — the exact per-frame hot path of [Shm_conn], pure
   memory traffic.  The socketpair row writes the same frame and reads
   it back through the same shared [Codec.frame_reader] — the
   per-frame syscall cost the unix transport pays.  Single-threaded on
   purpose: on a 1-CPU container the end-to-end p99 of both live
   transports is dominated by the same ~1 ms scheduler/GC tail, which
   would hide exactly the substitution these rows quantify (end-to-end
   RTTs come from [experiments serve --transport]). *)

let bench_frame () =
  let b = Buffer.create 32 in
  Service.Codec.encode_request b
    (Service.Codec.Cas { key = 7; expected = 1; desired = 2 });
  Buffer.to_bytes b

let mk_mem_ring cap =
  let ctrl = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 16 in
  let data = Bigarray.Array1.create Bigarray.char Bigarray.c_layout cap in
  Shm.Ring.init ~ctrl ~head_cell:0 ~tail_cell:8;
  Shm.Ring.create ~ctrl ~head_cell:0 ~tail_cell:8 ~data ~off:0 ~cap

let ring_frame_pass_cost =
  let ring = mk_mem_ring 4096 in
  let reader = Service.Codec.frame_reader (Shm.Ring.source ring) in
  let frame = bench_frame () in
  let len = Bytes.length frame in
  fun () ->
    if not (Shm.Ring.try_send ring frame ~pos:0 ~len) then
      failwith "bench: ring full";
    match Shm.Ring.pending ring with
    | `Msg _ -> (
        match Service.Codec.next_frame reader with
        | Service.Codec.Frame _ -> Shm.Ring.finish_msg ring
        | _ -> failwith "bench: ring decode")
    | _ -> failwith "bench: ring pending"

let sock_pair = lazy (Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)

let unix_frame_pass_cost =
  let reader =
    lazy
      (let _, rd = Lazy.force sock_pair in
       Service.Codec.frame_reader (fun b off len -> Unix.read rd b off len))
  in
  let frame = bench_frame () in
  let len = Bytes.length frame in
  fun () ->
    let wr, _ = Lazy.force sock_pair in
    if Unix.write wr frame 0 len <> len then failwith "bench: short write";
    match Service.Codec.next_frame (Lazy.force reader) with
    | Service.Codec.Frame _ -> ()
    | _ -> failwith "bench: sock decode"

(* The shared streaming decoder alone, over an in-memory source — the
   unix transport's read path through [Codec.frame_reader]; perfbench's
   traced run prices the codec itself (codec.encode_ns/decode_ns). *)
let frame_decode_cost =
  let frame = bench_frame () in
  let len = Bytes.length frame in
  let pos = ref 0 in
  let src b off l =
    let l = min l (len - !pos) in
    Bytes.blit frame !pos b off l;
    pos := !pos + l;
    if !pos = len then pos := 0;
    l
  in
  let reader = Service.Codec.frame_reader src in
  fun () ->
    match Service.Codec.next_frame reader with
    | Service.Codec.Frame _ -> ()
    | _ -> failwith "bench: decode"

(* Latency-distribution rows for the same two frame passes: exact
   percentiles over sorted per-op samples, each sample the per-op mean
   of 512 consecutive ops.  Batching serves two masters: the only
   clock here is [gettimeofday] (microsecond granularity, a single
   ring pass is ~150 ns), and the kernel's ~1 ms scheduler tick —
   batches short enough that a tick lands in ~1% of them would make
   both p99s read as the tick, while 512-op batches amortize it below
   the transport signal.  Paired sampling: same-size batches of the
   two mechanisms alternate within one pass, so a burst of CPU steal
   lands on both distributions alike and the percentile *ratio* stays
   a property of the mechanisms (separate passes run in different
   steal climates and the ratio wanders run to run).  Single-threaded,
   so the tail reflects the transport itself rather than the scheduler
   — the form of the shm-vs-unix comparison that is stable in CI;
   scheduler-inclusive end-to-end RTTs come from
   [experiments serve --transport].  The batch size [k], sample count
   [n] and warm-up shrink for ops that cost tens of microseconds rather
   than hundreds of nanoseconds. *)
let sample_percentiles_paired ?(k = 512) ?(n = 3_000) ?(warmup = 10_000) fn_a
    fn_b =
  let sa = Array.make n 0.0 and sb = Array.make n 0.0 in
  let window s i fn =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to k do
      fn ()
    done;
    s.(i) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int k
  in
  for _ = 1 to warmup do
    fn_a ();
    fn_b ()
  done;
  for i = 0 to n - 1 do
    window sa i fn_a;
    window sb i fn_b
  done;
  let pct s =
    Array.sort compare s;
    (s.(n / 2), s.(n * 99 / 100))
  in
  (pct sa, pct sb)

let percentile_rows () =
  (* The decode path allocates one payload per frame, so with the
     default 256k-word minor heap a ~60 µs collection lands in several
     percent of the batches and both p99s read as p50 + an equal GC
     term — the GC, not the transports.  A large minor heap pushes
     collections past the 1% quantile on both sides equally; the
     min-of-trials rows above are unaffected either way. *)
  let g = Gc.get () in
  Gc.set { g with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let (ring_p50, ring_p99), (unix_p50, unix_p99) =
    sample_percentiles_paired ring_frame_pass_cost unix_frame_pass_cost
  in
  Gc.set g;
  [
    ("serve/transport/frame-pass-p50/shm-ring", ring_p50);
    ("serve/transport/frame-pass-p99/shm-ring", ring_p99);
    ("serve/transport/frame-pass-p50/unix-socketpair", unix_p50);
    ("serve/transport/frame-pass-p99/unix-socketpair", unix_p99);
  ]

(* The measurement kernel: warm up, grow the batch until one trial is
   long enough to dwarf timer granularity (~2 ms), then report the
   minimum ns/op over repeated trials.  Any preemption, steal or GC
   pause only ever *adds* time to a trial, so the minimum estimates
   the uncontended cost — the quantity Table 1 is about — and is
   stable where a mean (or an OLS fit over raw samples) is not. *)
let measure fn =
  for _ = 1 to 1_000 do
    fn ()
  done;
  let time_batch n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      fn ()
    done;
    Unix.gettimeofday () -. t0
  in
  let rec calibrate n =
    if n >= 10_000_000 || time_batch n >= 0.002 then n else calibrate (n * 10)
  in
  let n = calibrate 100 in
  let best = ref infinity in
  for _ = 1 to 7 do
    let d = time_batch n in
    if d < !best then best := d
  done;
  !best *. 1e9 /. float_of_int n

(* ------------------------------------------------------------------ *)
(* lib/shmalloc: the shared-memory value arena.  The class rows time
   the two halves of a block's life separately — phase-timed fills and
   drains, best of 3 trials, because a steady-state [measure] thunk
   can only ever see alloc+free blended.  The free row deliberately
   includes the amortized flush (batch padding + insert pass): that is
   the real retire cost the daemon pays, not just the stamp bump. *)

let shmalloc_tmp tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "bench-%s-%d" tag (Unix.getpid ()))

let with_arena tag f =
  let path = shmalloc_tmp tag ^ ".arena" in
  Shmalloc.Arena.unlink_path path;
  let a = Shmalloc.Arena.create ~path ~slots:2 ~tids:1 () in
  Fun.protect
    ~finally:(fun () ->
      Shmalloc.Arena.mark_closed a;
      Shmalloc.Arena.detach a;
      Shmalloc.Arena.unlink a)
  @@ fun () -> f a

let shmalloc_class_rows () =
  with_arena "shmalloc" @@ fun a ->
  let class_rows =
    (* Default geometry: payload caps 16/128/1024/4104 B; fill counts
       stay under the per-class block budgets (4096/2048/1024/512). *)
    [ (16, 2048); (128, 1024); (1024, 512); (4104, 256) ]
    |> List.concat_map (fun (payload, count) ->
           let s = String.make payload 'v' in
           let refs = Array.make count 0 in
           let rounds = 16 in
           let best_alloc = ref infinity and best_free = ref infinity in
           for _trial = 1 to 3 do
             let t_alloc = ref 0.0 and t_free = ref 0.0 in
             for _round = 1 to rounds do
               let t0 = Unix.gettimeofday () in
               for i = 0 to count - 1 do
                 match Shmalloc.Arena.alloc_put a s with
                 | Some r -> refs.(i) <- r
                 | None -> failwith "bench: arena class exhausted"
               done;
               let t1 = Unix.gettimeofday () in
               for i = 0 to count - 1 do
                 Shmalloc.Arena.retire a ~tid:0 refs.(i)
               done;
               Shmalloc.Arena.flush a;
               let t2 = Unix.gettimeofday () in
               t_alloc := !t_alloc +. (t1 -. t0);
               t_free := !t_free +. (t2 -. t1)
             done;
             if !t_alloc < !best_alloc then best_alloc := !t_alloc;
             if !t_free < !best_free then best_free := !t_free
           done;
           let per t = t *. 1e9 /. float_of_int (count * rounds) in
           [
             (Printf.sprintf "shmalloc/alloc/%dB" payload, per !best_alloc);
             (Printf.sprintf "shmalloc/free/%dB" payload, per !best_free);
           ])
  in
  (* Reference decode: unpack all four packed fields plus the byte
     offset — the work a client does per [Val_ref] frame before the
     copy-out.  Class-independent, one row. *)
  let decode_row =
    match Shmalloc.Arena.alloc_put a (String.make 64 'r') with
    | None -> []
    | Some r ->
        let ns =
          measure (fun () ->
              ignore
                (Sys.opaque_identity
                   (Shmalloc.Arena.Ref.gen r + Shmalloc.Arena.Ref.cls r
                  + Shmalloc.Arena.Ref.len r + Shmalloc.Arena.Ref.idx r
                  + Shmalloc.Arena.off_of_ref a r)))
        in
        Shmalloc.Arena.retire a ~tid:0 r;
        Shmalloc.Arena.flush a;
        [ ("shmalloc/ref-decode", ns) ]
  in
  class_rows @ decode_row

(* The transparency gate, arena edition: the same shard call with the
   arena branch disabled (heap values, the default) vs wired in.  The
   arena-off row is the overhead the subsystem must not add when it is
   not configured. *)
let shmalloc_shard_call ~arena =
  let svc =
    Service.Shard.create
      ~structure:(Workload.Registry.find_structure "hashmap")
      ~scheme:(Workload.Registry.find_scheme "hyaline")
      {
        Service.Shard.default_config with
        Service.Shard.shards = 1;
        clients = 1;
        arena;
      }
  in
  let lc = Service.Conn.Loopback.connect svc ~tid:0 in
  let k = ref 0 in
  let ns =
    measure (fun () ->
        incr k;
        let key = !k land 255 in
        ignore
          (Service.Conn.Loopback.call lc
             (Service.Codec.Put { key; value = !k }));
        ignore (Service.Conn.Loopback.call lc (Service.Codec.Get key)))
  in
  svc.Service.Shard.stop ();
  ns

let shmalloc_overhead_rows () =
  let off = shmalloc_shard_call ~arena:None in
  let on = with_arena "shmalloc-svc" (fun a -> shmalloc_shard_call ~arena:(Some a)) in
  [
    ("shmalloc/overhead/shard-call-arena-off", off);
    ("shmalloc/overhead/shard-call-arena-on", on);
  ]

(* The remote GET the subsystem exists for: full RTT through the shm
   rings for a 1 KiB value, answered by reference (the serving engine
   mints a [Val_ref] from one atomic map read and the client copies
   out of its own mapping) vs materialized daemon-side through the
   mailbox.  The two clients alternate 16-call batches in each paired
   pass, so steal and scheduler ticks land on both alike; CI gates the
   ratio of the p50 rows at 2x per size. *)
let serve_zc_rows () =
  let path = shmalloc_tmp "zc-serve" in
  Service.Shm_conn.claim_listen_path path;
  let arena =
    Shmalloc.Arena.create ~path:(path ^ ".arena") ~slots:2 ~tids:1 ()
  in
  let svc =
    Service.Shard.create
      ~structure:(Workload.Registry.find_structure "hashmap")
      ~scheme:(Workload.Registry.find_scheme "hyaline")
      {
        Service.Shard.default_config with
        Service.Shard.shards = 1;
        clients = 2;
        zc_readers = 1;
        arena = Some arena;
      }
  in
  let srv = Service.Shm_conn.serve svc ~path () in
  Fun.protect
    ~finally:(fun () ->
      Service.Shm_conn.shutdown srv;
      svc.Service.Shard.stop ();
      Shmalloc.Arena.mark_closed arena;
      Shmalloc.Arena.detach arena;
      Shmalloc.Arena.unlink arena)
  @@ fun () ->
  let cref = Service.Shm_conn.connect ~path in
  let ccopy = Service.Shm_conn.connect ~path in
  Fun.protect
    ~finally:(fun () ->
      Service.Shm_conn.close cref;
      Service.Shm_conn.close ccopy)
  @@ fun () ->
  if not (Service.Shm_conn.enable_zc cref) then
    failwith "bench: zc negotiation failed";
  (* Value-size sweep: the reference path's win should hold from a
     cache-line-sized value up to the largest legal blob.  Two things
     other than the paths move a p50 here, and both only ever add
     time.  A 4080 B reply is a major-heap allocation on either path,
     so at the default [space_overhead] a major cycle (a stop-the-world
     across the client, engine and consumer domains) lands in most
     windows; a larger overhead keeps them rare.  And on a 2-vCPU box
     the scheduler sometimes stacks the client and the engine on one
     core for up to a second, where every call pays a context switch
     and both p50s read about 30 us high.  So the sweep runs three
     rounds, each size paired afresh per round, and keeps each path's
     lowest p50: the uncontended cost, as [measure] keeps its lowest
     trial. *)
  let g = Gc.get () in
  Gc.set { g with Gc.space_overhead = 400 };
  let sizes = [ 64; 1024; 4080 ] in
  let best = Array.make (List.length sizes) (infinity, infinity) in
  for _ = 1 to 3 do
    List.iteri
      (fun i n ->
        let blob = String.init n (fun i -> Char.chr (i land 0xff)) in
        ignore
          (Service.Shm_conn.call cref
             (Service.Codec.Putb { key = 1; value = blob }));
        let get c () = ignore (Service.Shm_conn.call c (Service.Codec.Get 1)) in
        let (ref_p50, _), (copy_p50, _) =
          sample_percentiles_paired ~k:16 ~n:100 ~warmup:500 (get cref)
            (get ccopy)
        in
        let r, c = best.(i) in
        best.(i) <- (Float.min r ref_p50, Float.min c copy_p50))
      sizes
  done;
  Gc.set g;
  List.concat
    (List.mapi
       (fun i n ->
         let ref_p50, copy_p50 = best.(i) in
         [
           (Printf.sprintf "serve/zc/ref-get-p50/%dB" n, ref_p50);
           (Printf.sprintf "serve/zc/copy-get-p50/%dB" n, copy_p50);
         ])
       sizes)

let shmalloc_rows () =
  shmalloc_class_rows () @ shmalloc_overhead_rows () @ serve_zc_rows ()

let microbenches () =
  scheme_rows "retire-cost" retire_cost
  @ scheme_rows "bracket-cost" bracket_cost
  @ scheme_rows "read-cost" read_cost
  @ [
      ("table1/read-cost/LFRC", lfrc_read_cost);
      ("table1/transparency/plain-read", plain_read_cost);
      ("table1/chaos/mpool-alloc-hook-off", mpool_alloc_disabled_hook_cost);
      ("table1/chaos/conn-write-frame-baseline", conn_write_frame_cost);
      ("table1/replica/crc32-64B", crc32_cost);
      ("cluster/ring/slot-of-key", ring_slot_cost);
      ("cluster/ring/assign-64s-3n", ring_assign_cost);
      ("cluster/node/redirect-check", node_redirect_cost);
    ]
  @ [
      ("serve/transport/frame-pass/shm-ring", ring_frame_pass_cost);
      ("serve/transport/frame-pass/unix-socketpair", unix_frame_pass_cost);
      ("serve/transport/frame-decode/shared-reader", frame_decode_cost);
    ]

(* Machine-readable Table 1 rows ([BENCH_JSON=path] or [--json path]):
   the perf trajectory artifact CI uploads, one {name, ns_per_op}
   object per microbench, the head-backend sweep included (every
   registry scheme appears, so dwcas vs llsc vs packed rows sit side
   by side under the same benchmark name prefix). *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json path rows =
  let oc = open_out path in
  output_string oc "{\n  \"unit\": \"ns/op\",\n  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "    {\"name\": \"%s\", \"ns_per_op\": %s}%s\n"
        (json_escape name)
        (if Float.is_nan ns then "null" else Printf.sprintf "%.3f" ns)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Format.printf "(wrote %d JSON rows to %s)@.@." (List.length rows) path

let run_microbenches ?json () =
  let rows =
    (microbenches () |> List.map (fun (name, fn) -> (name, measure fn)))
    @ percentile_rows () @ shmalloc_rows ()
    |> List.sort compare
  in
  Format.printf "## Table 1 — measured per-operation costs (ns/op)@.";
  Format.printf "%-48s %12s@." "benchmark" "ns/op";
  List.iter (fun (name, ns) -> Format.printf "%-48s %12.1f@." name ns) rows;
  Format.printf "@.";
  Option.iter (fun path -> write_json path rows) json

(* ------------------------------------------------------------------ *)

let getenv_f name default =
  match Sys.getenv_opt name with Some v -> float_of_string v | None -> default

let getenv_threads () =
  match Sys.getenv_opt "BENCH_THREADS" with
  | Some v -> String.split_on_char ',' v |> List.map int_of_string
  | None -> [ 1; 2; 4 ]

let run_figures () =
  let sc =
    {
      Workload.Figures.quick with
      Workload.Figures.duration = getenv_f "BENCH_DURATION" 0.3;
      threads = getenv_threads ();
      stalled = [ 0; 1; 2; 4 ];
    }
  in
  let open Workload in
  let header title =
    Format.printf "## %s@." title;
    Driver.pp_result_header Format.std_formatter ()
  in
  let emit r =
    Driver.pp_result Format.std_formatter r;
    Format.pp_print_flush Format.std_formatter ()
  in
  Format.printf "## Table 1 — scheme properties@.";
  Figures.table1 Format.std_formatter;
  Format.printf "@.";
  let structures = [ "list"; "hashmap"; "bonsai"; "nmtree" ] in
  List.iter
    (fun ds ->
      header (Printf.sprintf "Fig. 8/9 (write-heavy 50i/50d) — %s" ds);
      Figures.sweep ~sc ~structure_name:ds ~schemes:Figures.figure8_schemes
        ~mix:Driver.write_heavy ~emit;
      Format.printf "@.")
    structures;
  header "Fig. 10a (robustness: 2 active + stalled, hashmap)";
  Figures.robustness ~sc ~active:2 ~emit;
  Format.printf "@.";
  header "Fig. 10b (trimming, hashmap, 32 slots)";
  Figures.trimming ~sc ~emit;
  Format.printf "@.";
  List.iter
    (fun ds ->
      header (Printf.sprintf "Fig. 11/12 (read-mostly 90g/10p) — %s" ds);
      Figures.sweep ~sc ~structure_name:ds ~schemes:Figures.figure8_schemes
        ~mix:Driver.read_mostly ~emit;
      Format.printf "@.")
    structures;
  List.iter
    (fun ds ->
      header (Printf.sprintf "Fig. 13/14 (LL/SC backend, write-heavy) — %s" ds);
      Figures.sweep ~sc ~structure_name:ds ~schemes:Figures.ppc_schemes
        ~mix:Driver.write_heavy ~emit;
      Format.printf "@.")
    structures;
  List.iter
    (fun ds ->
      header (Printf.sprintf "Fig. 15/16 (LL/SC backend, read-mostly) — %s" ds);
      Figures.sweep ~sc ~structure_name:ds ~schemes:Figures.ppc_schemes
        ~mix:Driver.read_mostly ~emit;
      Format.printf "@.")
    structures

(* CLI: [--json PATH] (or BENCH_JSON=PATH) writes the Table-1 rows as
   JSON; [--only table1|figures|all] restricts which part runs, so CI
   can smoke-test the microbenchmarks without paying for the figure
   suite. *)
let () =
  let json = ref (Sys.getenv_opt "BENCH_JSON") in
  let only = ref "all" in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json := Some path;
        parse rest
    | "--only" :: part :: rest ->
        List.iter
          (function
            | "table1" | "figures" | "all" -> ()
            | p ->
                prerr_endline
                  ("bench: unknown --only part " ^ p
                 ^ " (expected table1|figures|all, comma-separable)");
                exit 2)
          (String.split_on_char ',' part);
        only := part;
        parse rest
    | arg :: _ ->
        prerr_endline ("bench: unknown argument " ^ arg);
        prerr_endline "usage: bench [--json PATH] [--only table1|figures|all]";
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  Format.printf
    "Hyaline reproduction benchmark suite (1-core container scale; see \
     EXPERIMENTS.md)@.@.";
  let picked = String.split_on_char ',' !only in
  let has p = List.mem p picked || List.mem "all" picked in
  if has "table1" then run_microbenches ?json:!json ();
  if has "figures" then run_figures ()
