(* CLI regenerating every table and figure of the paper's evaluation,
   plus the service-layer sweep.

   Usage:
     experiments table1
     experiments fig8  [--ds hashmap] [--paper] [--threads 1,2,4] [--plot]
     experiments fig10a [--active 2]
     experiments lag [--ds hashmap] [--metrics-csv m.csv] [--prom m.prom]
     experiments ablate-batch | ablate-slots | ablate-freq | ablate-spurious
     experiments serve [--schemes ebr,hyaline,hyaline1s] [--shards 4]
                       [--stalled-shards 1] [--rate 20000] [--prom m.prom]
     experiments all

   Each throughput figure shares its runs with its companion
   unreclaimed-objects figure (8/9, 11/12, 13/14, 15/16), so either
   name prints both metrics; --plot additionally renders the two
   ASCII charts (throughput, and unreclaimed on a log axis). *)

open Workload

let all_ds = [ "list"; "hashmap"; "bonsai"; "nmtree" ]

(* --dist {uniform,zipf[:theta]} -> the Figures.scale spec. *)
let parse_dist s =
  match String.lowercase_ascii s with
  | "uniform" -> `Uniform
  | "zipf" -> `Zipf 0.99
  | ls when String.length ls > 5 && String.sub ls 0 5 = "zipf:" -> (
      match float_of_string_opt (String.sub ls 5 (String.length ls - 5)) with
      | Some theta when theta >= 0.0 -> `Zipf theta
      | _ ->
          Format.eprintf "bad --dist %S (theta must be a float >= 0)@." s;
          exit 2)
  | _ ->
      Format.eprintf "unknown --dist %S (try uniform, zipf, zipf:0.8)@." s;
      exit 2

let scale_of ~paper ~threads ~duration ~repeat ~dist =
  let base = if paper then Figures.paper else Figures.quick in
  let base =
    match threads with
    | [] -> base
    | ts -> { base with Figures.threads = ts }
  in
  let base =
    match duration with
    | None -> base
    | Some d -> { base with Figures.duration = d }
  in
  let base =
    match dist with
    | None -> base
    | Some s -> { base with Figures.dist = Some (parse_dist s) }
  in
  match repeat with
  | None -> base
  | Some r -> { base with Figures.repeats = r }

(* Group collected rows into Plot series keyed by scheme name,
   preserving first-appearance order. *)
let series_of rows ~x ~y =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key = r.Driver.scheme in
      if not (Hashtbl.mem tbl key) then begin
        Hashtbl.add tbl key [];
        order := key :: !order
      end;
      Hashtbl.replace tbl key ((x r, y r) :: Hashtbl.find tbl key))
    rows;
  List.rev_map
    (fun label ->
      { Plot.label; points = List.rev (Hashtbl.find tbl label) })
    !order

let render_charts ~title ~xlabel rows =
  let throughput =
    Plot.render ~title:(title ^ " — throughput") ~ylabel:"Mops/s" ~xlabel
      (series_of rows
         ~x:(fun r -> float_of_int r.Driver.threads)
         ~y:(fun r -> r.Driver.throughput))
  in
  let unreclaimed =
    Plot.render ~logy:true
      ~title:(title ^ " — avg unreclaimed objects")
      ~ylabel:"blocks" ~xlabel
      (series_of rows
         ~x:(fun r -> float_of_int r.Driver.threads)
         ~y:(fun r -> r.Driver.avg_unreclaimed))
  in
  print_string throughput;
  print_newline ();
  print_string unreclaimed

let render_charts_stalled ~title rows =
  let mk ~logy ~ylabel y =
    Plot.render ~logy ~title:(title ^ " — " ^ ylabel) ~ylabel
      ~xlabel:"stalled threads"
      (series_of rows
         ~x:(fun r -> float_of_int r.Driver.stalled)
         ~y)
  in
  print_string (mk ~logy:true ~ylabel:"avg unreclaimed" (fun r -> r.Driver.avg_unreclaimed));
  print_newline ();
  print_string (mk ~logy:false ~ylabel:"Mops/s" (fun r -> r.Driver.throughput))

(* Optional machine-readable sink, set from --csv. *)
let csv_channel : out_channel option ref = ref None

let csv_header = "figure,scheme,structure,threads,stalled,ops,duration_s,mops,avg_unreclaimed,max_unreclaimed,retires,frees\n"

let csv_row oc title (r : Driver.result) =
  Printf.fprintf oc "%s,%s,%s,%d,%d,%d,%.4f,%.6f,%.1f,%d,%d,%d\n"
    (String.map (function ',' -> ';' | c -> c) title)
    r.Driver.scheme r.Driver.structure r.Driver.threads r.Driver.stalled
    r.Driver.ops r.Driver.duration r.Driver.throughput
    r.Driver.avg_unreclaimed r.Driver.max_unreclaimed r.Driver.retires
    r.Driver.frees

(* Observability sinks for the instrumented `lag` figure: --metrics-csv
   (one row per data point: lag percentiles, event totals, final
   gauges) and --prom (concatenated Prometheus text dumps). *)
let metrics_channel : out_channel option ref = ref None
let prom_channel : out_channel option ref = ref None

let metrics_header =
  "figure,scheme,structure,threads,stalled,lag_count,lag_p50_ns,lag_p90_ns,lag_p99_ns,lag_max_ns,events_alloc,events_retire,events_free,events_enter,events_leave,events_trim,gauges\n"

let metrics_row oc title ({ Figures.l_result = r; l_recorder } : Figures.lag_row)
    =
  let h = Obs.Recorder.lag_hist l_recorder in
  let ev k = Obs.Recorder.events_total l_recorder k in
  let gauges =
    Obs.Recorder.gauges l_recorder
    |> List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v)
    |> String.concat ";"
  in
  Printf.fprintf oc "%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s\n"
    (String.map (function ',' -> ';' | c -> c) title)
    r.Driver.scheme r.Driver.structure r.Driver.threads r.Driver.stalled
    (Obs.Hist.count h)
    (Obs.Hist.percentile h 0.50)
    (Obs.Hist.percentile h 0.90)
    (Obs.Hist.percentile h 0.99)
    (Obs.Hist.max_value h) (ev Obs.Ring.Alloc) (ev Obs.Ring.Retire)
    (ev Obs.Ring.Free) (ev Obs.Ring.Enter) (ev Obs.Ring.Leave)
    (ev Obs.Ring.Trim) gauges

let emit_lag_rows ~plot title f =
  Format.printf "## %s@." title;
  Format.printf "%-18s %-8s %4s %4s %9s %9s %9s %9s %9s@." "scheme"
    "structure" "thr" "stl" "frees" "lag-p50" "lag-p90" "lag-p99" "lag-max";
  f (fun ({ Figures.l_result = r; l_recorder } as row) ->
      let h = Obs.Recorder.lag_hist l_recorder in
      Format.printf "%-18s %-8s %4d %4d %9d %9s %9s %9s %9s@."
        r.Driver.scheme r.Driver.structure r.Driver.threads r.Driver.stalled
        (Obs.Hist.count h)
        (Plot.fmt_ns (Obs.Hist.percentile h 0.50))
        (Plot.fmt_ns (Obs.Hist.percentile h 0.90))
        (Plot.fmt_ns (Obs.Hist.percentile h 0.99))
        (Plot.fmt_ns (Obs.Hist.max_value h));
      if plot then
        print_string
          (Plot.histogram
             ~title:
               (Printf.sprintf "%s / %s, %d stalled — retire→free lag"
                  r.Driver.scheme r.Driver.structure r.Driver.stalled)
             (Obs.Hist.buckets h));
      (match !metrics_channel with
      | Some oc ->
          metrics_row oc title row;
          flush oc
      | None -> ());
      match !prom_channel with
      | Some oc ->
          Printf.fprintf oc "# run: %s scheme=%s structure=%s stalled=%d\n%s\n"
            title r.Driver.scheme r.Driver.structure r.Driver.stalled
            (Obs.Recorder.prometheus l_recorder);
          flush oc
      | None -> ());
  Format.printf "@."

let emit_rows ?(plot = `No) title f =
  Format.printf "## %s@." title;
  Driver.pp_result_header Format.std_formatter ();
  let rows = ref [] in
  f (fun r ->
      rows := r :: !rows;
      (match !csv_channel with
      | Some oc ->
          csv_row oc title r;
          flush oc
      | None -> ());
      Driver.pp_result Format.std_formatter r;
      Format.pp_print_flush Format.std_formatter ());
  Format.printf "@.";
  match plot with
  | `No -> ()
  | `Threads -> render_charts ~title ~xlabel:"threads" (List.rev !rows)
  | `Stalled -> render_charts_stalled ~title (List.rev !rows)

let run_sweep ~plot ~sc ~ds ~schemes ~mix ~fig_label =
  List.iter
    (fun structure_name ->
      emit_rows
        ~plot:(if plot then `Threads else `No)
        (Printf.sprintf "%s — %s" fig_label structure_name)
        (fun emit -> Figures.sweep ~sc ~structure_name ~schemes ~mix ~emit))
    ds

(* ------------------------------------------------------------------ *)
(* `experiments serve` — the lib/service sweep: clients x scheme x
   shards against the sharded KV core, one row per run with completed
   throughput, shed count, submit->reply latency tails and the
   control-plane tracker's sampled unreclaimed ceiling.  With
   --stalled-shards, the stalled consumers park inside a control-plane
   bracket (the paper's §2.3 adversary aimed at the service's own
   mailboxes): robust schemes keep ctl-max-unr bounded while the
   surviving shards answer and the stalled ones shed. *)

type serve_row = {
  sv_scheme : string;
  sv_structure : string;
  sv_shards : int;
  sv_clients : int;
  sv_stalled : int;
  sv_mode : string;
  sv_res : Service.Loadgen.result;
  sv_p50 : int;
  sv_p99 : int;
  sv_p999 : int;
  sv_ctl_max : int;
  sv_ctl : Smr.Stats.snapshot;
}

let serve_csv_header =
  "figure,scheme,structure,shards,clients,stalled_shards,mode,duration_s,submitted,ops,sheds,errors,ops_per_s,p50_ns,p99_ns,p999_ns,ctl_max_unreclaimed,ctl_retires,ctl_frees\n"

let serve_csv_row oc title (r : serve_row) =
  Printf.fprintf oc "%s,%s,%s,%d,%d,%d,%s,%.4f,%d,%d,%d,%d,%.1f,%d,%d,%d,%d,%d,%d\n"
    (String.map (function ',' -> ';' | c -> c) title)
    r.sv_scheme r.sv_structure r.sv_shards r.sv_clients r.sv_stalled r.sv_mode
    r.sv_res.Service.Loadgen.wall r.sv_res.Service.Loadgen.submitted
    r.sv_res.Service.Loadgen.ops r.sv_res.Service.Loadgen.sheds
    r.sv_res.Service.Loadgen.errors r.sv_res.Service.Loadgen.throughput
    r.sv_p50 r.sv_p99 r.sv_p999 r.sv_ctl_max r.sv_ctl.Smr.Stats.retires
    r.sv_ctl.Smr.Stats.frees

let serve_pp_header () =
  Format.printf "%-18s %3s %3s %3s %9s %8s %8s %8s %8s %8s %11s@." "scheme"
    "shd" "cli" "stl" "ops" "sheds" "Kops/s" "p50" "p99" "p99.9" "ctl-max-unr"

let serve_pp_row (r : serve_row) =
  Format.printf "%-18s %3d %3d %3d %9d %8d %8.1f %8s %8s %8s %11d@."
    r.sv_scheme r.sv_shards r.sv_clients r.sv_stalled
    r.sv_res.Service.Loadgen.ops r.sv_res.Service.Loadgen.sheds
    (r.sv_res.Service.Loadgen.throughput /. 1e3)
    (Plot.fmt_ns r.sv_p50) (Plot.fmt_ns r.sv_p99) (Plot.fmt_ns r.sv_p999)
    r.sv_ctl_max

(* Prefill through the mailboxes with a bounded submission window:
   async (a closed-loop prefill would pay a full round-trip per key on
   one core); a shed put is resubmitted in order by the pipeline. *)
let serve_prefill (svc : Service.Shard.t) ~n ~range ~seed =
  let rng = Prims.Rng.create ~seed in
  let dist = Keydist.uniform ~range in
  let keys = Array.init n (fun _ -> Keydist.draw dist rng) in
  Service.Shard.pipeline svc ~tid:0 ~window:64 ~n (fun i ->
      Service.Codec.Put { key = keys.(i); value = keys.(i) })

let serve_one ~(scheme : Registry.scheme) ~structure_name ~shards ~clients
    ~stalled ~duration ~dist ~mode ~mix ~churn ~mailbox_cap ~prefill ~range
    ~seed ~recorder : serve_row =
  let structure = Registry.find_structure structure_name in
  let scheme =
    match recorder with
    | None -> scheme
    | Some r ->
        (* Instrument the scheme itself so --prom also carries the
           reclamation-side events/lag next to the service gauges. *)
        { scheme with Registry.s_mod = Smr.Instrument.wrap (Obs.Recorder.probe r) scheme.Registry.s_mod }
  in
  let svc =
    Service.Shard.create ~structure ~scheme
      {
        Service.Shard.default_config with
        Service.Shard.shards;
        clients;
        mailbox_capacity = mailbox_cap;
        seed;
      }
  in
  serve_prefill svc ~n:prefill ~range ~seed:(seed + 17);
  for i = 0 to stalled - 1 do
    svc.Service.Shard.set_stalled ~shard:i true
  done;
  (* Sample the control-plane backlog while the load runs: the row's
     robustness metric is the ceiling, not the (post-drain) final. *)
  let sampling = Atomic.make true in
  let ctl_max = Atomic.make 0 in
  let sampler =
    Domain.spawn (fun () ->
        while Atomic.get sampling do
          let u =
            Smr.Stats.unreclaimed_of
              (Smr.Stats.snapshot (svc.Service.Shard.control_stats ()))
          in
          if u > Atomic.get ctl_max then Atomic.set ctl_max u;
          (match recorder with
          | Some r ->
              List.iter
                (fun (name, v) -> Obs.Recorder.set_gauge r ~name v)
                (svc.Service.Shard.gauges ())
          | None -> ());
          Unix.sleepf 0.005
        done)
  in
  let res =
    Service.Loadgen.run svc ~mode ~clients ~duration ~dist ~mix
      ?churn_ops:churn ~seed ()
  in
  Atomic.set sampling false;
  Domain.join sampler;
  let ctl = Smr.Stats.snapshot (svc.Service.Shard.control_stats ()) in
  let ctl_max =
    max (Atomic.get ctl_max) (Smr.Stats.unreclaimed_of ctl)
  in
  for i = 0 to stalled - 1 do
    svc.Service.Shard.set_stalled ~shard:i false
  done;
  let row =
    {
      sv_scheme = svc.Service.Shard.scheme_name;
      sv_structure = structure_name;
      sv_shards = shards;
      sv_clients = clients;
      sv_stalled = stalled;
      sv_mode =
        (match mode with
        | Service.Loadgen.Closed -> "closed"
        | Service.Loadgen.Open r -> Printf.sprintf "open@%.0f/s" r);
      sv_res = res;
      sv_p50 = Service.Slo.p50 svc.Service.Shard.slo;
      sv_p99 = Service.Slo.p99 svc.Service.Shard.slo;
      sv_p999 = Service.Slo.p999 svc.Service.Shard.slo;
      sv_ctl_max = ctl_max;
      sv_ctl = ctl;
    }
  in
  (match recorder with
  | Some r ->
      Obs.Hist.merge
        ~into:(Obs.Recorder.hist r ~name:"kv_request_latency_ns")
        (Service.Slo.hist svc.Service.Shard.slo);
      Obs.Hist.merge
        ~into:(Obs.Recorder.hist r ~name:"kv_batch_size")
        svc.Service.Shard.batch_hist;
      List.iter
        (fun (name, v) -> Obs.Recorder.set_gauge r ~name v)
        (svc.Service.Shard.gauges ());
      Obs.Recorder.set_gauge r ~name:"kv_ctl_max_unreclaimed_sampled" ctl_max
  | None -> ());
  svc.Service.Shard.stop ();
  row

let serve_mix_of mixname =
  match String.lowercase_ascii mixname with
  | "read" | "read-mostly" -> Service.Loadgen.read_mostly
  | "write" | "write-heavy" -> Service.Loadgen.write_heavy
  | "get" | "read-only" ->
      (* Pure GETs: on the shm transport every one is a bracketed
         in-process read — the zero-copy hot path in isolation. *)
      { Service.Loadgen.get_pct = 100; put_pct = 0; del_pct = 0; cas_pct = 0 }
  | other ->
      Format.eprintf "unknown --mix %S (read, write, or get)@." other;
      exit 2

let run_serve ~sc ~ds ~schemes ~shards ~stalled ~rate ~mixname ~churn
    ~mailbox_cap ~plot =
  let structure_name = match ds with "all" -> "hashmap" | d -> d in
  let mix = serve_mix_of mixname in
  let mode =
    match (rate, stalled) with
    | Some r, _ -> Service.Loadgen.Open r
    | None, 0 -> Service.Loadgen.Closed
    | None, _ ->
        (* A closed-loop client whose request is parked in a stalled
           mailbox would wait out the whole run; open loop keeps the
           arrivals coming, which is the regime shedding exists for. *)
        Format.printf
          "(stalled run: forcing open loop at 20000 req/s; override with \
           --rate)@.";
        Service.Loadgen.Open 20000.0
  in
  let range = sc.Figures.key_range in
  let dist =
    match sc.Figures.dist with
    | None | Some `Uniform -> Keydist.uniform ~range
    | Some (`Zipf theta) -> Keydist.zipf ~theta ~range ()
  in
  let prefill = min 2000 sc.Figures.prefill in
  let title =
    Printf.sprintf
      "serve (%s, %s, %d shards, %d stalled, mix=%s, dist=%s)" structure_name
      sc.Figures.label shards stalled mixname (Keydist.describe dist)
  in
  Format.printf "## %s@." title;
  serve_pp_header ();
  let rows = ref [] in
  List.iter
    (fun scheme_name ->
      let scheme = Registry.find_scheme scheme_name in
      List.iter
        (fun clients ->
          let recorder =
            match !prom_channel with
            | None -> None
            | Some _ ->
                Some (Obs.Recorder.create ~nthreads:(clients + shards) ())
          in
          let row =
            serve_one ~scheme ~structure_name ~shards ~clients ~stalled
              ~duration:sc.Figures.duration ~dist ~mode ~mix ~churn
              ~mailbox_cap ~prefill ~range ~seed:4242 ~recorder
          in
          rows := row :: !rows;
          serve_pp_row row;
          (match !csv_channel with
          | Some oc ->
              serve_csv_row oc title row;
              flush oc
          | None -> ());
          match (recorder, !prom_channel) with
          | Some r, Some oc ->
              Printf.fprintf oc
                "# run: %s scheme=%s clients=%d stalled=%d\n%s\n" title
                row.sv_scheme clients stalled (Obs.Recorder.prometheus r);
              flush oc
          | _ -> ())
        sc.Figures.threads)
    schemes;
  Format.printf "@.";
  if plot then begin
    let series y =
      let order = ref [] in
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun r ->
          if not (Hashtbl.mem tbl r.sv_scheme) then begin
            Hashtbl.add tbl r.sv_scheme [];
            order := r.sv_scheme :: !order
          end;
          Hashtbl.replace tbl r.sv_scheme
            ((float_of_int r.sv_clients, y r) :: Hashtbl.find tbl r.sv_scheme))
        (List.rev !rows);
      List.rev_map
        (fun label -> { Plot.label; points = List.rev (Hashtbl.find tbl label) })
        !order
    in
    print_string
      (Plot.render ~title:(title ^ " — throughput") ~ylabel:"Kops/s"
         ~xlabel:"clients"
         (series (fun r -> r.sv_res.Service.Loadgen.throughput /. 1e3)));
    print_newline ();
    print_string
      (Plot.render ~logy:true ~title:(title ^ " — p99 latency") ~ylabel:"ns"
         ~xlabel:"clients"
         (series (fun r -> float_of_int (max 1 r.sv_p99))))
  end

(* ------------------------------------------------------------------ *)
(* serve --transport: the same service behind the real wire.  The
   inproc rows above measure the service core (submit→reply inside the
   process); these measure what a client observes — full RTT through
   the unix socket's syscall-per-frame path, or through the shm rings,
   which cross no syscall per operation.  Same codec, same opcodes,
   same seeded request streams. *)

type transport_row = {
  tp_transport : string;
  tp_scheme : string;
  tp_shards : int;
  tp_clients : int;
  tp_ops : int;
  tp_wall : float;
  tp_p50 : int;
  tp_p99 : int;
  tp_p999 : int;
}

let transport_csv_header =
  "figure,transport,scheme,structure,shards,clients,duration_s,ops,ops_per_s,rtt_p50_ns,rtt_p99_ns,rtt_p999_ns\n"

let transport_csv_row oc title structure_name (r : transport_row) =
  Printf.fprintf oc "%s,%s,%s,%s,%d,%d,%.4f,%d,%.1f,%d,%d,%d\n"
    (String.map (function ',' -> ';' | c -> c) title)
    r.tp_transport r.tp_scheme structure_name r.tp_shards r.tp_clients
    r.tp_wall r.tp_ops
    (float_of_int r.tp_ops /. r.tp_wall)
    r.tp_p50 r.tp_p99 r.tp_p999

let transport_pp_header () =
  Format.printf "%-6s %-18s %3s %3s %9s %8s %8s %8s %8s@." "wire" "scheme"
    "shd" "cli" "ops" "Kops/s" "p50" "p99" "p99.9"

let transport_pp_row (r : transport_row) =
  Format.printf "%-6s %-18s %3d %3d %9d %8.1f %8s %8s %8s@." r.tp_transport
    r.tp_scheme r.tp_shards r.tp_clients r.tp_ops
    (float_of_int r.tp_ops /. r.tp_wall /. 1e3)
    (Plot.fmt_ns r.tp_p50) (Plot.fmt_ns r.tp_p99) (Plot.fmt_ns r.tp_p999)

let transport_path kind =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "kv-serve-%d.%s" (Unix.getpid ()) kind)

(* One client endpoint as a (call, close) pair, erasing the backend. *)
let transport_connect kind ~path =
  match kind with
  | "unix" ->
      let fd = Service.Conn.connect_unix ~path in
      ((fun req -> Service.Conn.call_fd fd req), fun () -> Unix.close fd)
  | "shm" ->
      let c = Service.Shm_conn.connect ~path in
      ( (fun req -> Service.Shm_conn.call c req),
        fun () -> Service.Shm_conn.close c )
  | k -> invalid_arg ("unknown transport " ^ k)

let transport_serve kind svc ~path =
  match kind with
  | "unix" ->
      let s = Service.Conn.serve_unix svc ~path () in
      fun () -> Service.Conn.shutdown s
  | "shm" ->
      let s = Service.Shm_conn.serve svc ~path () in
      fun () -> Service.Shm_conn.shutdown s
  | k -> invalid_arg ("unknown transport " ^ k)

let serve_transport_one ~kind ~(scheme : Registry.scheme) ~structure_name
    ~shards ~clients ~duration ~dist ~mix ~mailbox_cap ~prefill ~range ~seed :
    transport_row =
  let svc =
    Service.Shard.create
      ~structure:(Registry.find_structure structure_name)
      ~scheme
      {
        Service.Shard.default_config with
        Service.Shard.shards;
        clients;
        mailbox_capacity = mailbox_cap;
        seed;
        (* Both transports get the same service shape, and both
           serving domains lease the slot to answer GETs inline. *)
        zc_readers = 1;
      }
  in
  serve_prefill svc ~n:prefill ~range ~seed:(seed + 17);
  let path = transport_path kind in
  let stop_server = transport_serve kind svc ~path in
  let t0 = Unix.gettimeofday () in
  let deadline_ns =
    Obs.Clock.now_ns () + int_of_float (duration *. 1e9)
  in
  let worker tid =
    let rng =
      Prims.Rng.create ~seed:(Service.Loadgen.client_seed ~seed ~tid)
    in
    let call, close_conn = transport_connect kind ~path in
    let h = Obs.Hist.create () in
    let ops = ref 0 in
    (* One clock read per op bounds both the loop and the RTT sample,
       so the measurement itself adds no extra syscalls to the
       syscall-free path under test. *)
    let t = ref (Obs.Clock.now_ns ()) in
    while !t < deadline_ns do
      ignore (call (Service.Loadgen.gen_request rng ~dist ~mix));
      let now = Obs.Clock.now_ns () in
      Obs.Hist.add h (now - !t);
      t := now;
      incr ops
    done;
    close_conn ();
    (h, !ops)
  in
  let results =
    if clients = 1 then [ worker 0 ]
    else
      List.init clients (fun tid -> Domain.spawn (fun () -> worker tid))
      |> List.map Domain.join
  in
  let wall = Unix.gettimeofday () -. t0 in
  stop_server ();
  svc.Service.Shard.stop ();
  let hist = Obs.Hist.create () in
  let ops =
    List.fold_left
      (fun acc (h, n) ->
        Obs.Hist.merge ~into:hist h;
        acc + n)
      0 results
  in
  {
    tp_transport = kind;
    tp_scheme = svc.Service.Shard.scheme_name;
    tp_shards = shards;
    tp_clients = clients;
    tp_ops = ops;
    tp_wall = wall;
    tp_p50 = Obs.Hist.percentile hist 0.50;
    tp_p99 = Obs.Hist.percentile hist 0.99;
    tp_p999 = Obs.Hist.percentile hist 0.999;
  }

let run_serve_transport ~sc ~ds ~schemes ~shards ~transport ~mixname
    ~mailbox_cap =
  let structure_name = match ds with "all" -> "hashmap" | d -> d in
  let mix = serve_mix_of mixname in
  let range = sc.Figures.key_range in
  let dist = Keydist.uniform ~range in
  let prefill = min 2000 sc.Figures.prefill in
  let kinds =
    match transport with "all" -> [ "unix"; "shm" ] | k -> [ k ]
  in
  let title =
    Printf.sprintf "serve --transport %s (%s, %s, %d shards, mix=%s)"
      transport structure_name sc.Figures.label shards mixname
  in
  Format.printf "## %s@." title;
  transport_pp_header ();
  List.iter
    (fun scheme_name ->
      let scheme = Registry.find_scheme scheme_name in
      List.iter
        (fun clients ->
          List.iter
            (fun kind ->
              let row =
                serve_transport_one ~kind ~scheme ~structure_name ~shards
                  ~clients ~duration:sc.Figures.duration ~dist ~mix
                  ~mailbox_cap ~prefill ~range ~seed:4242
              in
              transport_pp_row row;
              match !csv_channel with
              | Some oc ->
                  transport_csv_row oc title structure_name row;
                  flush oc
              | None -> ())
            kinds)
        sc.Figures.threads)
    schemes;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* The one reporter behind every --smoke gate: failures accumulate,
   and [finish] prints them and exits 1, or prints the ok line. *)

type report = { tag : string; mutable problems : string list }

let report tag = { tag; problems = [] }
let note r = Option.iter (fun m -> r.problems <- m :: r.problems)
let check r c msg = if not c then note r (Some msg)
let fail r fmt = Printf.ksprintf (fun m -> note r (Some m)) fmt

(* Every stalled-reader verdict goes through [Stalled.judge]. *)
let judge_stalled r ~what ~slack ~bound ~floor rows =
  List.iter
    (fun row ->
      Format.printf "%s: %s backlog %s@." r.tag what (Stalled.to_string row);
      note r (Stalled.judge ~slack ~bound ~floor row))
    rows

let finish r ~ok =
  if r.problems <> [] then begin
    List.iter
      (fun m -> Format.eprintf "%s FAILED: %s@." r.tag m)
      (List.rev r.problems);
    exit 1
  end
  else Option.iter (fun m -> Format.printf "%s ok: %s@." r.tag m) ok

(* Where two reply traces first differ. *)
let diverge a b =
  let rec go i xs ys =
    match (xs, ys) with
    | x :: _, y :: _ when x <> y -> Printf.sprintf "op %d: %s vs %s" i x y
    | _ :: xs, _ :: ys -> go (i + 1) xs ys
    | _ -> "length mismatch"
  in
  go 0 a b

(* serve --smoke: the CI gate for the shm transport.  The same seeded
   request stream through a unix-socket client and an shm client
   against identically-built services, and through a unix client
   against a service with no zero-copy slot (every GET routed), must
   produce byte-identical reply sequences (one codec, two wires, two
   read paths).  The stalled zero-copy reader is a tier-1 case
   ([shm.zerocopy]), judged over every registry scheme. *)

let smoke_reply_trace kind ~path stream =
  let call, close_conn = transport_connect kind ~path in
  let replies =
    List.map (fun req -> Service.Codec.reply_to_string (call req)) stream
  in
  close_conn ();
  replies

let run_serve_smoke () =
  let verdict = report "serve smoke" in
  (* Both unix and shm answer GETs inline through a zero-copy slot;
     the second unix run has no slot, so every GET is routed.  Three
     identical traces prove the bracketed-read path and the routed
     path give the same answers. *)
  let mk_svc ~zc_readers =
    Service.Shard.create
      ~structure:(Registry.find_structure "hashmap")
      ~scheme:(Registry.find_scheme "hyaline")
      {
        Service.Shard.default_config with
        Service.Shard.shards = 2;
        clients = 2;
        seed = 7;
        zc_readers;
      }
  in
  let stream =
    Service.Loadgen.request_stream ~seed:4242 ~tid:0
      ~dist:(Keydist.uniform ~range:256)
      ~mix:Service.Loadgen.write_heavy ~n:400
  in
  let trace ~zc_readers kind =
    let svc = mk_svc ~zc_readers in
    let path = transport_path ("smoke." ^ kind) in
    let stop_server = transport_serve kind svc ~path in
    let replies = smoke_reply_trace kind ~path stream in
    stop_server ();
    svc.Service.Shard.stop ();
    let inline = Atomic.get svc.Service.Shard.inline_gets in
    (* Otherwise the identity below would not cover the inline path. *)
    if zc_readers > 0 && inline = 0 then
      fail verdict "%s trace: no GET was answered inline" kind;
    replies
  in
  let unix_replies = trace ~zc_readers:1 "unix" in
  let shm_replies = trace ~zc_readers:1 "shm" in
  let routed_replies = trace ~zc_readers:0 "unix" in
  if unix_replies <> shm_replies then
    fail verdict "transport identity: unix and shm reply traces diverge (%s)"
      (diverge unix_replies shm_replies)
  else if unix_replies <> routed_replies then
    fail verdict
      "transport identity: inline and routed unix reply traces diverge (%s)"
      (diverge unix_replies routed_replies);
  finish verdict
    ~ok:
      (Some
         (Printf.sprintf
            "one codec over two wires answers a %d-op seeded stream \
             identically, inline and routed"
            (List.length stream)))

(* serve --zc remote --smoke: the cross-process zero-copy CI gate.
   The arena-backed daemon answers GETs by reference ([Val_ref]) to
   clients that negotiated a mapping; everyone else gets materialized
   bytes.  Three gates:
   1. Reference identity — the same seeded stream must answer
      byte-identically whether the client materializes references from
      its own mapping, takes the routed copy path, or talks to a plain
      heap-backed service.  One codec, three value paths.
   2. Stalled remote reader — a client parks inside its reservation
      bracket while another connection churns; [Handoff] (the
      cross-process Hyaline-S discipline) keeps the arena's
      retired-unreclaimed backlog bounded, [Epoch] pins everything
      retired since the stall.
   3. Confirmed-death sweep — a client dies holding its bracket; the
      serving engine ([lib/service/engine.ml]) closes the ring
      connection, its release hook force-clears the reservation slot,
      and reclamation drains. *)

let zc_arena_server ~policy ~tag f =
  let path = transport_path ("zc." ^ tag) in
  (* Claim before create: the stale sweep targets <path>.arena*. *)
  Service.Shm_conn.claim_listen_path path;
  let arena =
    Shmalloc.Arena.create ~path:(path ^ ".arena") ~slots:2 ~policy ~tids:2 ()
  in
  let svc =
    Service.Shard.create
      ~structure:(Registry.find_structure "hashmap")
      ~scheme:(Registry.find_scheme "hyaline")
      {
        Service.Shard.default_config with
        Service.Shard.shards = 2;
        clients = 2;
        seed = 7;
        zc_readers = 1;
        arena = Some arena;
      }
  in
  let srv = Service.Shm_conn.serve svc ~path () in
  Fun.protect ~finally:(fun () ->
      Service.Shm_conn.shutdown srv;
      svc.Service.Shard.stop ();
      Shmalloc.Arena.mark_closed arena;
      Shmalloc.Arena.detach arena;
      Shmalloc.Arena.unlink arena)
  @@ fun () -> f ~path ~arena

let zc_reply_trace ~negotiate ~tag stream =
  zc_arena_server ~policy:Shmalloc.Arena.Handoff ~tag @@ fun ~path ~arena:_ ->
  let c = Service.Shm_conn.connect ~path in
  Fun.protect ~finally:(fun () -> Service.Shm_conn.close c)
  @@ fun () ->
  if negotiate && not (Service.Shm_conn.enable_zc c) then
    failwith "zc negotiation refused by arena-backed daemon";
  List.map
    (fun req -> Service.Codec.reply_to_string (Service.Shm_conn.call c req))
    stream

(* The stalled remote reader, sampled after [n] and [2n] put/del pairs
   from a second connection.  The arena has no scheme module: its
   [Handoff] policy is the Hyaline-S discipline (robust), [Epoch] the
   EBR baseline (not). *)
let zc_stalled_backlog ~policy ~n =
  zc_arena_server ~policy ~tag:("stall." ^ Shmalloc.Arena.policy_name policy)
  @@ fun ~path ~arena ->
  let c = Service.Shm_conn.connect ~path in
  Fun.protect ~finally:(fun () -> Service.Shm_conn.close c)
  @@ fun () ->
  if not (Service.Shm_conn.enable_zc c) then failwith "zc negotiation failed";
  ignore (Service.Shm_conn.call c (Service.Codec.Put { key = 0; value = 0 }));
  ignore (Service.Shm_conn.call c (Service.Codec.Get 0));
  (* Park the reservation open — the remote analogue of a reader
     stalled mid-bracket. *)
  Service.Shm_conn.zc_hold c;
  let c2 = Service.Shm_conn.connect ~path in
  let churn () =
    for i = 1 to n do
      ignore
        (Service.Shm_conn.call c2
           (Service.Codec.Put { key = i land 31; value = i }));
      ignore (Service.Shm_conn.call c2 (Service.Codec.Del (i land 31)))
    done;
    Shmalloc.Arena.unreclaimed arena
  in
  let at_n = churn () in
  let at_2n = churn () in
  Service.Shm_conn.close c2;
  Service.Shm_conn.zc_release c;
  {
    Stalled.name = Shmalloc.Arena.policy_name policy;
    robust = policy = Shmalloc.Arena.Handoff;
    at_n;
    at_2n;
  }

let zc_dead_client_drain () =
  zc_arena_server ~policy:Shmalloc.Arena.Handoff ~tag:"dead"
  @@ fun ~path ~arena ->
  let c = Service.Shm_conn.connect ~path in
  if not (Service.Shm_conn.enable_zc c) then failwith "zc negotiation failed";
  let slot = Option.get (Service.Shm_conn.zc_slot c) in
  ignore (Service.Shm_conn.call c (Service.Codec.Put { key = 9; value = 9 }));
  ignore (Service.Shm_conn.call c (Service.Codec.Get 9));
  Service.Shm_conn.zc_hold c;
  (* Die without releasing the bracket; closing the connection in the
     serving engine must force-clear the slot on the corpse's behalf. *)
  Service.Shm_conn.close c;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    Shmalloc.Arena.slot_era arena ~slot <> 0
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.01
  done;
  let cleared = Shmalloc.Arena.slot_era arena ~slot = 0 in
  (* With the slot gone nothing holds an era, so fresh churn flushes
     straight through the insert pass and the backlog stays at the
     partial-batch floor. *)
  let c2 = Service.Shm_conn.connect ~path in
  for i = 1 to 500 do
    ignore
      (Service.Shm_conn.call c2
         (Service.Codec.Put { key = i land 15; value = i }));
    ignore (Service.Shm_conn.call c2 (Service.Codec.Del (i land 15)))
  done;
  Service.Shm_conn.close c2;
  (cleared, Shmalloc.Arena.unreclaimed arena)

let run_serve_zc_smoke () =
  let verdict = report "zc smoke" in
  let stream =
    Service.Loadgen.request_stream ~seed:4242 ~tid:0
      ~dist:(Keydist.uniform ~range:256)
      ~mix:Service.Loadgen.write_heavy ~n:400
  in
  (* 1: reference identity — ref path vs copy path vs heap-backed. *)
  let heap_replies =
    let svc =
      Service.Shard.create
        ~structure:(Registry.find_structure "hashmap")
        ~scheme:(Registry.find_scheme "hyaline")
        {
          Service.Shard.default_config with
          Service.Shard.shards = 2;
          clients = 2;
          seed = 7;
          zc_readers = 1;
        }
    in
    let path = transport_path "zc.heap" in
    let stop_server = transport_serve "shm" svc ~path in
    let replies = smoke_reply_trace "shm" ~path stream in
    stop_server ();
    svc.Service.Shard.stop ();
    replies
  in
  let ref_replies = zc_reply_trace ~negotiate:true ~tag:"ref" stream in
  let copy_replies = zc_reply_trace ~negotiate:false ~tag:"copy" stream in
  if ref_replies <> copy_replies then
    fail verdict "zc identity: by-reference and copy-path traces diverge (%s)"
      (diverge ref_replies copy_replies)
  else if ref_replies <> heap_replies then
    fail verdict "zc identity: arena-backed and heap-backed traces diverge (%s)"
      (diverge ref_replies heap_replies);
  (* 2: stalled remote reader, Handoff vs Epoch, over 2 x 2500 pairs;
     handoff must end under a quarter of the retirements behind the
     stall, and epoch above it. *)
  let n = 2500 in
  judge_stalled verdict ~what:"stalled remote reader"
    ~slack:(Stalled.slack Smr.Config.default)
    ~bound:(2 * n / 4) ~floor:(2 * n / 4)
    (List.map
       (fun policy -> zc_stalled_backlog ~policy ~n)
       [ Shmalloc.Arena.Handoff; Shmalloc.Arena.Epoch ]);
  (* 3: confirmed-death sweep. *)
  let cleared, residue = zc_dead_client_drain () in
  check verdict cleared "dead client's reservation slot never swept";
  if residue >= 64 then
    fail verdict
      "post-sweep arena backlog %d did not drain to the partial-batch floor"
      residue;
  finish verdict
    ~ok:
      (Some
         (Printf.sprintf
            "%d-op stream answers identically by reference, by copy and \
             from the heap; a stalled remote reader pins only what handoff \
             bounds; a dead client's slot is swept (backlog %d)"
            (List.length stream) residue))

(* ------------------------------------------------------------------ *)
(* chaos: the lib/chaos fault-injection matrix.  Everything printed to
   stdout and --csv is a deterministic function of (plan, scheme) —
   replaying a seed must be byte-identical — so wall-clock figures
   (recovery ns, peak backlog magnitude, run seconds) go only to
   --prom. *)

let chaos_csv_header =
  "class,scheme,structure,steps,prompt,deferred,shed,availability_pct,\
   oom_injected,net_faults,churns,crashes,recoveries,recovery_steps,\
   mem_verdict,bound,oracle,oracle_checked,gen_trips\n"

let chaos_mem_verdict (r : Chaos.Engine.result) =
  match r.Chaos.Engine.r_mem_bounded with
  | None -> "n/a"
  | Some true -> "bounded"
  | Some false -> "EXCEEDED"

let chaos_oracle_verdict (r : Chaos.Engine.result) =
  if r.Chaos.Engine.r_oracle.Chaos.Oracle.ok then "pass" else "FAIL"

let chaos_pp_header () =
  Format.printf
    "%-6s %-11s %5s %6s %5s %5s %7s %4s %4s %5s %5s %4s %6s %-8s %s@."
    "class" "scheme" "steps" "prompt" "defer" "shed" "avail" "oom" "net"
    "churn" "crash" "rec" "recst" "memory" "oracle"

let chaos_row_string cls (r : Chaos.Engine.result) =
  let open Chaos.Engine in
  Printf.sprintf
    "%-6s %-11s %5d %6d %5d %5d %6.1f%% %4d %4d %5d %5d %4d %6d %-8s %s" cls
    r.r_scheme r.r_steps r.r_prompt r.r_deferred r.r_shed (availability r)
    r.r_oom_injected r.r_net_faults r.r_churns r.r_crashes r.r_recoveries
    r.r_recovery_steps (chaos_mem_verdict r) (chaos_oracle_verdict r)

let chaos_csv_row oc cls (r : Chaos.Engine.result) =
  let open Chaos.Engine in
  Printf.fprintf oc
    "%s,%s,%s,%d,%d,%d,%d,%.1f,%d,%d,%d,%d,%d,%d,%s,%d,%s,%d,%d\n" cls
    r.r_scheme r.r_structure r.r_steps r.r_prompt r.r_deferred r.r_shed
    (availability r) r.r_oom_injected r.r_net_faults r.r_churns r.r_crashes
    r.r_recoveries r.r_recovery_steps (chaos_mem_verdict r) r.r_bound
    (chaos_oracle_verdict r)
    r.r_oracle.Chaos.Oracle.checked r.r_oracle.Chaos.Oracle.gen_trips

let chaos_emit cls (r : Chaos.Engine.result) =
  List.iter (fun l -> Format.printf "  %s@." l) r.Chaos.Engine.r_trace;
  List.iter
    (fun f -> Format.printf "  ! %s@." f)
    r.Chaos.Engine.r_oracle.Chaos.Oracle.failures;
  Format.printf "%s@." (chaos_row_string cls r);
  (match !csv_channel with
  | Some oc ->
      chaos_csv_row oc cls r;
      flush oc
  | None -> ());
  match !prom_channel with
  | Some oc ->
      Printf.fprintf oc
        "# chaos class=%s scheme=%s structure=%s\n\
         chaos_peak_ctl_unreclaimed %d\n\
         chaos_recovery_ns %d\n\
         chaos_wall_seconds %.3f\n"
        cls r.Chaos.Engine.r_scheme r.Chaos.Engine.r_structure
        r.Chaos.Engine.r_peak_ctl r.Chaos.Engine.r_recovery_ns
        r.Chaos.Engine.r_wall_s;
      flush oc
  | None -> ()

let chaos_run_one ~cls ~scheme_name ~structure ~shards ~bound plan =
  let scheme = Registry.find_scheme scheme_name in
  let cfg =
    {
      (Chaos.Engine.default_cfg ~scheme ~structure) with
      Chaos.Engine.shards;
      bound;
    }
  in
  let r = Chaos.Engine.run cfg plan in
  (String.concat "\n" r.Chaos.Engine.r_trace, chaos_row_string cls r, r)

let chaos_plot cls rows =
  let downsample series =
    let n = Array.length series in
    let stride = max 1 (n / 64) in
    let pts = ref [] in
    let i = ref 0 in
    while !i < n do
      pts := (float_of_int !i, float_of_int series.(!i)) :: !pts;
      i := !i + stride
    done;
    List.rev !pts
  in
  print_string
    (Plot.render
       ~title:(Printf.sprintf "chaos %s — ctl unreclaimed over time" cls)
       ~ylabel:"blocks" ~xlabel:"step"
       (List.rev_map
          (fun (label, r) ->
            { Plot.label; points = downsample r.Chaos.Engine.r_series })
          rows));
  print_newline ()

let run_chaos ~ds ~schemes ~classes ~steps ~seed ~bound ~shards ~smoke ~plot =
  let structure =
    Registry.find_structure (match ds with "all" -> "hashmap" | d -> d)
  in
  let detect =
    (Chaos.Engine.default_cfg
       ~scheme:(Registry.find_scheme "ebr")
       ~structure)
      .Chaos.Engine.detect
  in
  if smoke then begin
    (* The CI gate: the fixed crash+oom+net plan, each scheme run
       twice.  Replays must be byte-identical; each scheme must keep
       its control-plane backlog within the bound across the crash
       window exactly when its module declares it robust; the oracle
       must pass for all. *)
    let plan = Chaos.Fault.smoke ~nshards:shards ~detect in
    Format.printf
      "## chaos --smoke (fixed plan: crash + oom + net, %d steps, detect \
       %d, bound %d, %s)@."
      plan.Chaos.Fault.steps detect bound structure.Registry.d_name;
    chaos_pp_header ();
    let verdict = report "chaos smoke" in
    List.iter
      (fun name ->
        let t1, row1, r =
          chaos_run_one ~cls:"smoke" ~scheme_name:name ~structure ~shards ~bound
            plan
        in
        let t2, row2, _ =
          chaos_run_one ~cls:"smoke" ~scheme_name:name ~structure ~shards ~bound
            plan
        in
        check verdict
          (t1 = t2 && row1 = row2)
          (name ^ ": replay of the same plan diverged");
        chaos_emit "smoke" r;
        let name = r.Chaos.Engine.r_scheme in
        (match r.Chaos.Engine.r_mem_bounded with
        | None -> fail verdict "%s: the plan's crash was never detected" name
        | Some bounded ->
            if Stalled.robust (Registry.find_scheme name) <> bounded then
              fail verdict "%s: ctl backlog %s its bound across the crash \
                            window, against its robust flag" name
                (if bounded then "stayed within" else "exceeded"));
        check verdict r.Chaos.Engine.r_oracle.Chaos.Oracle.ok
          (name ^ ": oracle failed"))
      [ "hyalines"; "crystalline"; "ebr" ];
    finish verdict
      ~ok:
        (Some
           "replays identical, oracle pass, ctl backlog bounded exactly \
            where the scheme is robust")
  end
  else
    List.iter
      (fun cls_name ->
        let classes =
          match Chaos.Fault.classes_named cls_name with
          | Some c -> c
          | None ->
              Format.eprintf "unknown fault class %S (try %s)@." cls_name
                (String.concat ", " Chaos.Fault.class_names);
              exit 2
        in
        let events = max 3 (steps / 80) in
        let plan =
          Chaos.Fault.generate ~seed ~steps ~nshards:shards ~classes ~events
            ~crash_window:(detect + 48)
        in
        Format.printf
          "## chaos %s (seed %d, %d steps, %d events, bound %d, %s)@."
          cls_name seed steps
          (List.length plan.Chaos.Fault.events)
          bound structure.Registry.d_name;
        chaos_pp_header ();
        let rows = ref [] in
        List.iter
          (fun scheme_name ->
            let _, _, r =
              chaos_run_one ~cls:cls_name ~scheme_name ~structure ~shards
                ~bound plan
            in
            chaos_emit cls_name r;
            rows := (r.Chaos.Engine.r_scheme, r) :: !rows)
          schemes;
        Format.printf "@.";
        if plot then chaos_plot cls_name (List.rev !rows))
      classes

(* ------------------------------------------------------------------ *)
(* `experiments replicate` — the lib/replica matrix, per scheme:
     A. WAL cost: closed-loop write-heavy throughput with the ack hook
        disabled vs a Primary group-committing to a mem store.
     B. The snapshot long-reader adversary: a gated snapshot holds its
        bracket while churn retires nodes under it; the row is the
        shard's unreclaimed ceiling (EBR balloons, Hyaline-S stays
        bounded — the serving-path twin of fig10a).
     C. Replication lag: an in-process follower chases the committed
        record stream under load; max observed lag + apply p99, then a
        convergence sweep.
     D. Failover: acked history -> snapshots+truncation -> follower ->
        more acked history -> torn group commit kills shard 0 ->
        process death -> confirmed-death detection -> promotion from
        the shared store.  Judge: Chaos.Oracle.replay_state of exactly
        the acked history, compared byte-for-byte against both the
        promoted follower and a fresh primary recovered from the same
        store.
   Everything runs on the deterministic mem store, so the torn tail is
   exact and recovery/truncation byte counts can be asserted. *)

let rep_csv_header = "phase,scheme,structure,shards,metric,value\n"

let rep_emit ~phase ~scheme ~structure ~shards metrics =
  (match !csv_channel with
  | Some oc ->
      List.iter
        (fun (metric, v) ->
          Printf.fprintf oc "%s,%s,%s,%d,%s,%.1f\n" phase scheme structure
            shards metric v)
        metrics;
      flush oc
  | None -> ());
  match !prom_channel with
  | Some oc ->
      List.iter
        (fun (metric, v) ->
          Printf.fprintf oc "replicate_%s{phase=%S,scheme=%S} %.1f\n" metric
            phase scheme v)
        metrics;
      flush oc
  | None -> ()

let rep_throughput ~scheme ~structure_name ~shards ~clients ~duration ~seed
    ~delta =
  let structure = Registry.find_structure structure_name in
  let dist = Keydist.uniform ~range:4096 in
  let svc_off =
    Service.Shard.create ~structure ~scheme
      { Service.Shard.default_config with Service.Shard.shards; clients; seed }
  in
  let off =
    Service.Loadgen.run svc_off ~mode:Service.Loadgen.Closed ~clients ~duration
      ~dist ~mix:Service.Loadgen.write_heavy ~seed ()
  in
  svc_off.Service.Shard.stop ();
  let store, _ = Replica.Store.Mem.create () in
  let p, _ =
    Replica.Primary.create ~structure ~scheme ~delta
      { Service.Shard.default_config with Service.Shard.shards; clients; seed }
      ~store ()
  in
  let fsync_sum () =
    Array.fold_left (fun a w -> a + Replica.Wal.fsyncs w) 0 p.Replica.Primary.wals
  in
  let before = fsync_sum () in
  let on =
    Service.Loadgen.run p.Replica.Primary.svc ~mode:Service.Loadgen.Closed
      ~clients ~duration ~dist ~mix:Service.Loadgen.write_heavy ~seed ()
  in
  let fsyncs = fsync_sum () - before in
  let fsync_p99 =
    Array.fold_left
      (fun a w -> max a (Obs.Hist.percentile (Replica.Wal.fsync_hist w) 0.99))
      0 p.Replica.Primary.wals
  in
  Replica.Primary.stop p;
  (off, on, fsyncs, fsync_p99)

(* Phase B: the snapshot long-reader adversary.  A snapshot of shard
   0 parks at its gate, holding its traversal bracket open, while
   fresh-key put/del churn retires nodes in the same shard; the
   shard's backlog is sampled after [churn] and [2 * churn] ops, before
   the reader is released.  With [`Delta] the parked reader is inside
   a dirty-set-driven delta traversal instead of a full sweep: it
   takes the same bracket, so it must be exactly as survivable. *)
let rep_parked_reader ~scheme ~structure_name ~shards ~churn ~mode =
  let structure = Registry.find_structure structure_name in
  let store, _ = Replica.Store.Mem.create () in
  let p, _ =
    Replica.Primary.create ~structure ~scheme ~delta:(mode = `Delta)
      { Service.Shard.default_config with Service.Shard.shards; clients = 2 }
      ~store ()
  in
  let svc = p.Replica.Primary.svc in
  let call req = ignore (Service.Shard.call svc ~tid:0 req) in
  (* Apply [f] to the next [n] keys from [k] that live in shard 0. *)
  let shard0 k n f =
    let left = ref n in
    while !left > 0 do
      if svc.Service.Shard.shard_of_key !k = 0 then begin
        f !k;
        decr left
      end;
      incr k
    done
  in
  shard0 (ref 0) 64 (fun k -> call (Service.Codec.Put { key = k; value = k }));
  if mode = `Delta then begin
    ignore (Replica.Primary.snapshot_shard p ~shard:0 ~mode:`Full ());
    (* Dirty a handful of keys so the delta has a write set to park
       in. *)
    shard0 (ref 0) 8 (fun k -> call (Service.Codec.Put { key = k; value = 1 }))
  end;
  let entered = Atomic.make false in
  let release = Atomic.make false in
  let gate i =
    if i = 0 then begin
      Atomic.set entered true;
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done
    end
  in
  let snap =
    Domain.spawn (fun () ->
        Replica.Primary.snapshot_shard p ~shard:0 ~gate ~truncate:false ~mode ())
  in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  let kk = ref 1_000_000 in
  let churn () =
    shard0 kk (churn / 2) (fun k ->
        call (Service.Codec.Put { key = k; value = 1 });
        call (Service.Codec.Del k));
    Smr.Stats.unreclaimed_of
      (Smr.Stats.snapshot (List.nth (svc.Service.Shard.data_stats ()) 0))
  in
  let at_n = churn () in
  let at_2n = churn () in
  Atomic.set release true;
  ignore (Domain.join snap);
  Replica.Primary.stop p;
  Stalled.row scheme ~at_n ~at_2n

(* Phase E: delta amplification.  A delta-tracking primary over a
   large key range with a small write set; the snapshot gate counts
   traversal visits, so full-gate-calls / delta-gate-calls IS the
   amplification factor the incremental chain removes.  The delta runs
   first (it consumes the dirty sets), the forced full second. *)
let rep_delta_amplification ~scheme ~structure_name ~shards ~keys ~dirty =
  let structure = Registry.find_structure structure_name in
  let store, _ = Replica.Store.Mem.create () in
  let p, _ =
    Replica.Primary.create ~structure ~scheme ~delta:true
      ~dirty_cap:(1 lsl 16)
      { Service.Shard.default_config with Service.Shard.shards; clients = 2 }
      ~store ()
  in
  let svc = p.Replica.Primary.svc in
  for k = 0 to keys - 1 do
    ignore
      (Service.Shard.call svc ~tid:0 (Service.Codec.Put { key = k; value = k }))
  done;
  for shard = 0 to shards - 1 do
    ignore (Replica.Primary.snapshot_shard p ~shard ~mode:`Full ())
  done;
  let stride = max 1 (keys / max 1 dirty) in
  let dirtied = ref 0 in
  let k = ref 0 in
  while !dirtied < dirty && !k < keys do
    ignore
      (Service.Shard.call svc ~tid:0
         (Service.Codec.Put { key = !k; value = !k + 1 }));
    incr dirtied;
    k := !k + stride
  done;
  let count mode =
    let ops = ref 0 in
    for shard = 0 to shards - 1 do
      ignore
        (Replica.Primary.snapshot_shard p ~shard
           ~gate:(fun _ -> incr ops)
           ~truncate:false ~mode ())
    done;
    !ops
  in
  let delta_ops = count `Delta in
  let full_ops = count `Full in
  Replica.Primary.stop p;
  (full_ops, delta_ops)

let rep_pull_of p ~shard ~from ~max =
  match
    Replica.Primary.handle p (Service.Codec.Rep_pull { shard; from; max })
  with
  | Some r -> r
  | None -> Service.Codec.Error "pull: not a replication request"

let rep_lag ~scheme ~structure_name ~shards ~clients ~duration ~seed ~delta =
  let structure = Registry.find_structure structure_name in
  let store, _ = Replica.Store.Mem.create () in
  let p, _ =
    Replica.Primary.create ~structure ~scheme ~delta
      { Service.Shard.default_config with Service.Shard.shards; clients; seed }
      ~store ()
  in
  let f, _ =
    Replica.Follower.create ~structure ~scheme
      { Service.Shard.default_config with Service.Shard.shards; clients = 2; seed }
      ~pull:(rep_pull_of p) ()
  in
  let running = Atomic.make true in
  let max_lag = Atomic.make 0 in
  let samples = ref [] in
  let stepper =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while Atomic.get running do
          for shard = 0 to shards - 1 do
            ignore (Replica.Follower.step f ~shard ())
          done;
          let l = Array.fold_left max 0 (Replica.Follower.lag f) in
          if l > Atomic.get max_lag then Atomic.set max_lag l;
          incr i;
          if !i mod 64 = 0 then samples := (!i, l) :: !samples;
          Domain.cpu_relax ()
        done)
  in
  let res =
    Service.Loadgen.run p.Replica.Primary.svc ~mode:Service.Loadgen.Closed
      ~clients ~duration
      ~dist:(Keydist.uniform ~range:4096)
      ~mix:Service.Loadgen.write_heavy ~seed ()
  in
  Atomic.set running false;
  Domain.join stepper;
  ignore (Replica.Follower.sync f);
  let converged = ref true in
  for shard = 0 to shards - 1 do
    if Replica.Primary.sweep p ~shard <> Replica.Follower.sweep f ~shard then
      converged := false
  done;
  let apply_p99 = Obs.Hist.percentile (Replica.Follower.apply_hist f) 0.99 in
  Replica.Primary.stop p;
  Replica.Follower.stop f;
  (res, Atomic.get max_lag, apply_p99, !converged, List.rev !samples)

type rep_fo = {
  fo_ops : int;
  fo_confirm_polls : int;
  fo_torn_bytes : int;
  fo_caught_up : int;
  fo_late_acks : int;
  fo_promoted_ok : bool;
  fo_recovered_ok : bool;
  fo_boot2_truncated : int;
}

let rep_failover ~scheme ~structure_name ~shards ~rounds ~seed ~delta
    ~snap_every =
  let structure = Registry.find_structure structure_name in
  let store, _ = Replica.Store.Mem.create () in
  let cfg =
    { Service.Shard.default_config with Service.Shard.shards; clients = 4; seed }
  in
  let p, _ = Replica.Primary.create ~structure ~scheme ~delta cfg ~store () in
  let svc = p.Replica.Primary.svc in
  let rng = Prims.Rng.create ~seed:(seed + 99) in
  let ops = ref [] in
  let range = 512 in
  (* Closed single-driver loop: the submission order is a
     linearization, so Oracle.replay_state of [ops] is exact. *)
  let rounds_done = ref 0 in
  (* [--snap-every N]: a snapshot cadence during the pre-follower
     history (with [--delta] it publishes base+delta chains), so the
     recovery below bootstraps through whatever chain shape the
     cadence left.  The cadence stops once the follower exists: a
     truncation past its pull window is a retention question, not a
     failover one. *)
  let drive ?(snap = false) n =
    for _ = 1 to n do
      let key = Prims.Rng.below rng range in
      let req =
        match Prims.Rng.below rng 10 with
        | 0 | 1 | 2 | 3 ->
            Service.Codec.Put { key; value = Prims.Rng.below rng 1000 }
        | 4 | 5 -> Service.Codec.Del key
        | 6 ->
            Service.Codec.Cas
              {
                key;
                expected = Prims.Rng.below rng 1000;
                desired = Prims.Rng.below rng 1000;
              }
        | _ -> Service.Codec.Get key
      in
      let reply = Service.Shard.call svc ~tid:0 req in
      ops := (req, reply) :: !ops;
      incr rounds_done;
      if snap && snap_every > 0 && !rounds_done mod snap_every = 0 then
        for shard = 0 to shards - 1 do
          ignore (Replica.Primary.snapshot_shard p ~shard ())
        done
    done
  in
  let third = max 1 (rounds / 3) in
  drive ~snap:true third;
  (* Mid-history snapshots with truncation: later bootstraps must go
     snapshot-then-log, and Rep_pull from 0 is now legitimately
     Too_old. *)
  for shard = 0 to shards - 1 do
    ignore (Replica.Primary.snapshot_shard p ~shard ())
  done;
  drive third;
  (* Follower cold-starts from the shared store (snapshot + read-only
     log scan), then catches the stream up over pulls. *)
  let f, _ =
    Replica.Follower.create ~structure ~scheme
      { cfg with Service.Shard.clients = 2 }
      ~pull:(rep_pull_of p) ~store ()
  in
  ignore (Replica.Follower.sync f);
  (* Acked history the follower has NOT pulled: promotion must recover
     it from the shared store, not lose it. *)
  drive (max 1 (rounds - (2 * third)));
  (* Arm the torn commit and throw un-ackable work at shard 0: its
     next group commit dies writing the final record halfway. *)
  Replica.Primary.arm_torn_commit p ~shard:0;
  let late_acks = Atomic.make 0 in
  let submitted = ref 0 in
  let kk = ref (range + 1) in
  while !submitted < 32 do
    if svc.Service.Shard.shard_of_key !kk = 0 then begin
      incr submitted;
      svc.Service.Shard.submit ~tid:1
        (Service.Codec.Put { key = !kk; value = !kk })
        (function
          | Service.Codec.Shed | Service.Codec.Error _ ->
              (* shed or failed at stop: correctly never acked *)
              ()
          | _ -> Atomic.incr late_acks)
    end;
    incr kk
  done;
  let spins = ref 0 in
  while svc.Service.Shard.consumer_alive 0 && !spins < 50_000_000 do
    incr spins;
    Domain.cpu_relax ()
  done;
  if svc.Service.Shard.consumer_alive 0 then
    failwith "replicate: armed shard did not crash on its torn commit";
  Replica.Primary.kill p;
  let mon =
    Replica.Failover.monitor
      ~alive:(fun () -> Replica.Primary.alive p)
      ~heartbeat:svc.Service.Shard.heartbeat ~nshards:shards ()
  in
  let polls = ref 0 in
  while (not (Replica.Failover.poll mon)) && !polls < 10_000 do
    incr polls;
    Unix.sleepf 0.001
  done;
  if not (Replica.Failover.confirmed mon) then
    failwith "replicate: primary death was never confirmed";
  let prom = Replica.Failover.promote f ~store in
  let promoted_state =
    List.concat
      (List.init shards (fun shard -> Replica.Follower.sweep f ~shard))
    |> List.sort compare
  in
  (* A fresh primary recovered from the same store must agree too —
     and its recovery must truncate exactly the bytes the promotion
     scan reported as torn. *)
  let p2, boot2 = Replica.Primary.create ~structure ~scheme cfg ~store () in
  let recovered_state =
    List.concat
      (List.init shards (fun shard -> Replica.Primary.sweep p2 ~shard))
    |> List.sort compare
  in
  Replica.Primary.stop p2;
  Replica.Primary.stop p;
  Replica.Follower.stop f;
  let expected = Chaos.Oracle.replay_state ~ops:(List.rev !ops) in
  {
    fo_ops = List.length !ops;
    fo_confirm_polls =
      (match Replica.Failover.confirmed_at mon with Some n -> n | None -> -1);
    fo_torn_bytes = Array.fold_left ( + ) 0 prom.Replica.Failover.p_torn_bytes;
    fo_caught_up = Array.fold_left ( + ) 0 prom.Replica.Failover.p_caught_up;
    fo_late_acks = Atomic.get late_acks;
    fo_promoted_ok = promoted_state = expected;
    fo_recovered_ok = recovered_state = expected;
    fo_boot2_truncated =
      Array.fold_left
        (fun a (r : Replica.Wal.recovery) -> a + r.Replica.Wal.r_truncated_bytes)
        0 boot2.Replica.Primary.b_recovery;
  }

let run_replicate ~sc ~ds ~schemes ~shards ~smoke ~plot ~snap_every ~delta =
  let structure_name = match ds with "all" -> "hashmap" | d -> d in
  let clients = 8 in
  let seed = 4242 in
  let duration = if smoke then 0.15 else Float.max 0.3 sc.Figures.duration in
  let churn = if smoke then 1500 else 4000 in
  (* A parked reader sees [churn] ops, then [churn] more: a robust
     backlog must end under a quarter of one round, a non-robust one
     above a quarter of both. *)
  let bound = churn / 4 in
  let floor = 2 * churn / 4 in
  let slack = Stalled.slack Service.Shard.default_config.Service.Shard.smr in
  let rounds = if smoke then 1200 else 3000 in
  Format.printf
    "## replicate (%s, %d shards, mem store, churn %d, %d acked rounds%s%s%s)@."
    structure_name shards churn rounds
    (if delta then ", delta snapshots" else "")
    (if snap_every > 0 then Printf.sprintf ", snap-every %d" snap_every else "")
    (if smoke then ", smoke" else "");
  let verdict = report (if smoke then "replicate smoke" else "replicate") in
  let check = check verdict in
  (* Delta amplification is a property of the snapshot machinery, not
     of the reclamation scheme: measure it once, in snapshot-traversal
     gate calls (the unit both paths share), before the scheme loop. *)
  if delta then begin
    let akeys = if smoke then 20_000 else 100_000 in
    let adirty = if smoke then 200 else 1_000 in
    let full_ops, delta_ops =
      rep_delta_amplification
        ~scheme:(Registry.find_scheme (List.hd schemes))
        ~structure_name ~shards ~keys:akeys ~dirty:adirty
    in
    Format.printf
      "delta amplification: %d keys / %d dirty -> full %d gate calls, delta \
       %d gate calls (%.1fx)@."
      akeys adirty full_ops delta_ops
      (float_of_int full_ops /. float_of_int (max 1 delta_ops));
    check
      (delta_ops * 10 < full_ops)
      (Printf.sprintf
         "delta snapshot cost %d gate calls vs %d for full traversal — not \
          under the 10%% amplification bound"
         delta_ops full_ops);
    rep_emit ~phase:"delta" ~scheme:(List.hd schemes)
      ~structure:structure_name ~shards
      [
        ("amp_keys", float_of_int akeys);
        ("amp_dirty", float_of_int adirty);
        ("full_gate_calls", float_of_int full_ops);
        ("delta_gate_calls", float_of_int delta_ops);
      ]
  end;
  Format.printf "%-18s %8s %8s %7s %9s %12s %9s %8s %7s %6s %6s %3s@." "scheme"
    "off-Kops" "on-Kops" "fsyncs" "fsync-p99" "snap-max-unr" "delta-unr"
    "max-lag" "caught" "polls" "torn" "ok";
  let parked = ref [] in
  let lag_series = ref [] in
  List.iter
    (fun scheme_name ->
      let scheme = Registry.find_scheme scheme_name in
      let off, on, fsyncs, fsync_p99 =
        rep_throughput ~scheme ~structure_name ~shards ~clients ~duration ~seed
          ~delta
      in
      let snap =
        rep_parked_reader ~scheme ~structure_name ~shards ~churn ~mode:`Full
      in
      let dsnap =
        if delta then
          Some
            (rep_parked_reader ~scheme ~structure_name ~shards ~churn
               ~mode:`Delta)
        else None
      in
      parked := (snap, dsnap) :: !parked;
      let _lres, max_lag, apply_p99, converged, samples =
        rep_lag ~scheme ~structure_name ~shards ~clients ~duration ~seed ~delta
      in
      check converged
        (scheme_name ^ ": follower state diverged from the primary after sync");
      lag_series :=
        {
          Plot.label = scheme_name;
          points =
            List.map (fun (i, l) -> (float_of_int i, float_of_int l)) samples;
        }
        :: !lag_series;
      let fo =
        rep_failover ~scheme ~structure_name ~shards ~rounds ~seed ~delta
          ~snap_every
      in
      check (fo.fo_late_acks = 0)
        (scheme_name ^ ": non-durable work was acknowledged");
      check fo.fo_promoted_ok
        (scheme_name ^ ": promoted follower diverged from the oracle replay");
      check fo.fo_recovered_ok
        (scheme_name ^ ": recovered primary diverged from the oracle replay");
      check (fo.fo_torn_bytes > 0)
        (scheme_name ^ ": the torn commit left no torn tail");
      check
        (fo.fo_boot2_truncated = fo.fo_torn_bytes)
        (scheme_name
       ^ ": recovery truncated a different byte count than the scan observed");
      Format.printf "%-18s %8.1f %8.1f %7d %9s %12d %9s %8d %7d %6d %6d %3s@."
        scheme_name
        (off.Service.Loadgen.throughput /. 1e3)
        (on.Service.Loadgen.throughput /. 1e3)
        fsyncs
        (Plot.fmt_ns fsync_p99)
        snap.Stalled.at_2n
        (match dsnap with
        | Some d -> string_of_int d.Stalled.at_2n
        | None -> "-")
        max_lag fo.fo_caught_up fo.fo_confirm_polls fo.fo_torn_bytes
        (if
           fo.fo_promoted_ok && fo.fo_recovered_ok && fo.fo_late_acks = 0
           && converged
         then "ok"
         else "DIV");
      rep_emit ~phase:"throughput" ~scheme:scheme_name ~structure:structure_name
        ~shards
        [
          ("off_kops", off.Service.Loadgen.throughput /. 1e3);
          ("on_kops", on.Service.Loadgen.throughput /. 1e3);
          ("fsyncs", float_of_int fsyncs);
          ("fsync_p99_ns", float_of_int fsync_p99);
        ];
      rep_emit ~phase:"snapshot" ~scheme:scheme_name ~structure:structure_name
        ~shards
        ([
           ("snap_unreclaimed_at_n", float_of_int snap.Stalled.at_n);
           ("snap_max_unreclaimed", float_of_int snap.Stalled.at_2n);
           ("bound", float_of_int bound);
         ]
        @
        match dsnap with
        | Some d ->
            [
              ("delta_unreclaimed_at_n", float_of_int d.Stalled.at_n);
              ("delta_max_unreclaimed", float_of_int d.Stalled.at_2n);
            ]
        | None -> []);
      rep_emit ~phase:"lag" ~scheme:scheme_name ~structure:structure_name
        ~shards
        [
          ("max_lag_frames", float_of_int max_lag);
          ("apply_p99_ns", float_of_int apply_p99);
          ("converged", if converged then 1.0 else 0.0);
        ];
      rep_emit ~phase:"failover" ~scheme:scheme_name ~structure:structure_name
        ~shards
        [
          ("acked_ops", float_of_int fo.fo_ops);
          ("confirm_polls", float_of_int fo.fo_confirm_polls);
          ("torn_bytes", float_of_int fo.fo_torn_bytes);
          ("caught_up", float_of_int fo.fo_caught_up);
          ("late_acks", float_of_int fo.fo_late_acks);
          ("promoted_oracle_ok", if fo.fo_promoted_ok then 1.0 else 0.0);
          ("recovered_oracle_ok", if fo.fo_recovered_ok then 1.0 else 0.0);
        ])
    schemes;
  Format.printf "@.";
  (* The robustness contrast: the snapshot reader is the paper's
     stalled adversary wearing service clothes, and a reader stalled
     inside a delta traversal is still just a stalled reader to the
     reclamation layer. *)
  let snaps = List.rev_map fst !parked in
  if smoke then note verdict (Stalled.contrast snaps);
  judge_stalled verdict ~what:"parked snapshot reader" ~slack ~bound ~floor
    snaps;
  judge_stalled verdict ~what:"parked delta reader" ~slack ~bound ~floor
    (List.rev (List.filter_map snd !parked));
  if plot && !lag_series <> [] then begin
    print_string
      (Plot.render ~title:"replicate — follower lag while loaded"
         ~ylabel:"frames" ~xlabel:"stepper sample"
         (List.rev !lag_series));
    print_newline ()
  end;
  finish verdict
    ~ok:
      (if smoke then
         Some
           (Printf.sprintf
              "acks durable, torn tails truncated, promoted and recovered \
               states oracle-identical, parked snapshot readers judged by \
               each scheme's robust flag%s"
              (if delta then
                 ", delta snapshots under the 10% amplification bound"
               else ""))
       else None)

(* ------------------------------------------------------------------ *)
(* cluster: N consistent-hash members (each a durable Primary wrapped
   in a Cluster.Node, served over the evloop Conn backend), a router
   chasing redirects, live slot migrations under Zipf load, whole-node
   kill/partition faults from a declarative plan, and the robustness
   contrast measured while a migration snapshot reader is parked
   mid-ship. *)

let cluster_csv_header = "phase,scheme,structure,nodes,metric,value\n"

let cluster_emit ~phase ~scheme ~structure ~nodes metrics =
  (match !csv_channel with
  | Some oc ->
      List.iter
        (fun (metric, v) ->
          Printf.fprintf oc "%s,%s,%s,%d,%s,%.1f\n" phase scheme structure
            nodes metric v)
        metrics;
      flush oc
  | None -> ());
  match !prom_channel with
  | Some oc ->
      List.iter
        (fun (metric, v) ->
          Printf.fprintf oc "cluster_%s{phase=%S,scheme=%S} %.1f\n" metric
            phase scheme v)
        metrics;
      flush oc
  | None -> ()

type cluster_res = {
  cr_acked : int;
  cr_kops : float;
  cr_failed : int;  (** routed calls that failed outside any outage *)
  cr_unavailable : int;  (** routed calls that failed during an outage *)
  cr_moved : int;
  cr_shed : int;
  cr_migrations : int;
  cr_snap_kvs : int;
  cr_snap_pages : int;
  cr_catchup_records : int;
  cr_catchup_rounds : int;
  cr_delta_ships : int;
      (** migrations that shipped a delta chain instead of a full copy *)
  cr_snap : Stalled.row;  (** shard-0 backlog while the snap reader is parked *)
  cr_reboots : int;
  cr_partitions : int;
  cr_table_kept : bool;
  cr_oracle_ok : bool;
}

let cluster_run_one ~scheme_name ~structure_name ~nnodes ~seed ~churn ~nmig
    ~plan =
  let structure = Registry.find_structure structure_name in
  let scheme = Registry.find_scheme scheme_name in
  let nslots = Cluster.Ring.default_nslots in
  let shards = 2 in
  let apply_tid = 5 in
  let keyrange = 256 in
  let cfg =
    { Service.Shard.default_config with Service.Shard.shards; clients = 6; seed }
  in
  let stores = Array.init nnodes (fun _ -> fst (Replica.Store.Mem.create ())) in
  let mk_primary id =
    fst (Replica.Primary.create ~structure ~scheme cfg ~store:stores.(id) ())
  in
  let owners0 =
    Cluster.Ring.assign ~seed ~nslots ~nodes:(List.init nnodes Fun.id)
  in
  let prims = Array.init nnodes mk_primary in
  let nodes =
    Array.mapi
      (fun id p ->
        Cluster.Node.create ~node_id:id ~nslots ~owners:(Array.copy owners0)
          ~apply_tid p)
      prims
  in
  let paths =
    Array.init nnodes (fun id ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "kvcluster-%d-%d.sock" (Unix.getpid ()) id))
  in
  let serve id =
    Service.Conn.serve_unix prims.(id).Replica.Primary.svc ~path:paths.(id)
      ~ext:(Cluster.Node.handle nodes.(id))
      ~ext_defer:Cluster.Node.deferrable ()
  in
  let servers = Array.init nnodes serve in
  let eps =
    Array.init nnodes (fun id -> Cluster.Router.endpoint ~id ~path:paths.(id))
  in
  let router =
    Cluster.Router.create ~nslots ~endpoints:(Array.to_list eps) ()
  in
  let dist = Keydist.zipf ~range:keyrange () in
  let stop = Atomic.make false in
  let hold = Atomic.make false in
  let parked = Atomic.make false in
  let outage = Atomic.make false in
  let acked = Atomic.make 0 in
  let failed = Atomic.make 0 in
  let unavailable = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  (* One sequential driver: each op is acked before the next is
     issued, so the acked history is a linearization and
     Oracle.replay_state of it is exact.  The hold/parked handshake
     lets the fault injector operate with no request in flight —
     a kill never leaves an applied-but-unacked write to argue about. *)
  let driver =
    Domain.spawn (fun () ->
        let rng = Prims.Rng.create ~seed:(seed + 7) in
        let history = ref [] in
        while not (Atomic.get stop) do
          if Atomic.get hold then begin
            Atomic.set parked true;
            while Atomic.get hold && not (Atomic.get stop) do
              Domain.cpu_relax ()
            done;
            Atomic.set parked false
          end
          else begin
            let key = Keydist.draw dist rng in
            let req =
              match Prims.Rng.below rng 10 with
              | 0 | 1 | 2 | 3 ->
                  Service.Codec.Put { key; value = Prims.Rng.below rng 1000 }
              | 4 | 5 -> Service.Codec.Del key
              | 6 ->
                  Service.Codec.Cas
                    {
                      key;
                      expected = Prims.Rng.below rng 1000;
                      desired = Prims.Rng.below rng 1000;
                    }
              | _ -> Service.Codec.Get key
            in
            match Cluster.Router.call router req with
            | Service.Codec.Error _ | Service.Codec.Shed
            | Service.Codec.Moved _ ->
                if Atomic.get outage then Atomic.incr unavailable
                else Atomic.incr failed
            | reply ->
                history := (req, reply) :: !history;
                Atomic.incr acked
          end
        done;
        List.rev !history)
  in
  let joined = ref false in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Atomic.set hold false;
      if not !joined then ignore (Domain.join driver);
      Cluster.Router.close router;
      Array.iter Service.Conn.shutdown servers;
      Array.iter Replica.Primary.stop prims)
    (fun () ->
      let park () =
        Atomic.set hold true;
        while not (Atomic.get parked) do
          Domain.cpu_relax ()
        done
      in
      let release () = Atomic.set hold false in
      let wait_acked n =
        let deadline = Unix.gettimeofday () +. 30. in
        while Atomic.get acked < n && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        if Atomic.get acked < n then
          failwith "cluster: the routed driver stopped making progress"
      in
      (* Phase 1: routed load builds against the boot table. *)
      wait_acked 200;
      (* Phase 2: migrate the hottest source-owned slots (the Zipf
         head lives on the smallest keys) while the driver keeps
         writing through them. *)
      let mig_slots =
        let seen = Hashtbl.create 8 in
        let acc = ref [] in
        let k = ref 0 in
        while List.length !acc < nmig && !k < 100 * keyrange do
          let s = Cluster.Ring.slot_of_key ~nslots !k in
          if (not (Hashtbl.mem seen s)) && Cluster.Node.owns_slot nodes.(0) s
          then begin
            Hashtbl.add seen s ();
            acc := s :: !acc
          end;
          incr k
        done;
        List.rev !acc
      in
      let mig_stats =
        List.map
          (fun slot ->
            match
              Cluster.Migrate.run ~src:eps.(0) ~dst:eps.(1) ~slot
                ~nshards:shards ~nslots ~router ()
            with
            | Ok s -> s
            | Error e ->
                failwith (Printf.sprintf "cluster: migrating slot %d: %s" slot e))
          mig_slots
      in
      (* Phase 2b: ship the first slot straight back.  Node 0 still
         holds its pre-handoff copy and the handoff token it minted at
         the freeze, and node 1 has tracked every post-grant write in
         the slot's dirty set — so this leg must travel as a delta
         (dirty keys + tombstones over the existing base), not a full
         snapshot.  [mg_delta] records which one actually happened. *)
      let mig_stats =
        match mig_slots with
        | [] -> mig_stats
        | slot :: _ -> (
            match
              Cluster.Migrate.run ~src:eps.(1) ~dst:eps.(0) ~slot
                ~nshards:shards ~nslots ~router ()
            with
            | Ok s -> mig_stats @ [ s ]
            | Error e ->
                failwith
                  (Printf.sprintf "cluster: back-migrating slot %d: %s" slot e))
      in
      (* Phase 3: the robustness window.  A migration's snapshot
         consumer can stall mid-ship (a slow target draining Cl_snap
         pages); the traversal's bracket then pins whatever the scheme
         cannot reclaim.  Park exactly that traversal in-process (over
         the wire a parked gate would stall the transport pump) and
         churn fresh keys through the gated shard via the router, so
         the retirements travel the full cluster data path. *)
      let entered = Atomic.make false in
      let release_snap = Atomic.make false in
      let gate i =
        if i = 0 then begin
          Atomic.set entered true;
          while not (Atomic.get release_snap) do
            Domain.cpu_relax ()
          done
        end
      in
      let svc0 = prims.(0).Replica.Primary.svc in
      let snap =
        Domain.spawn (fun () -> svc0.Service.Shard.snapshot ~shard:0 ~gate)
      in
      let snap =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set release_snap true;
            ignore (Domain.join snap))
          (fun () ->
            while not (Atomic.get entered) do
              Domain.cpu_relax ()
            done;
            let kk = ref 1_000_000 in
            let churn () =
              let churned = ref 0 in
              while !churned < churn do
                if
                  Cluster.Node.owns_slot nodes.(0)
                    (Cluster.Ring.slot_of_key ~nslots !kk)
                  && svc0.Service.Shard.shard_of_key !kk = 0
                then begin
                  ignore
                    (Cluster.Router.call router
                       (Service.Codec.Put { key = !kk; value = 1 }));
                  ignore (Cluster.Router.call router (Service.Codec.Del !kk));
                  churned := !churned + 2
                end;
                incr kk
              done;
              Smr.Stats.unreclaimed_of
                (Smr.Stats.snapshot
                   (List.nth (svc0.Service.Shard.data_stats ()) 0))
            in
            let at_n = churn () in
            let at_2n = churn () in
            Stalled.row scheme ~at_n ~at_2n)
      in
      (* Phase 4: whole-node faults.  Virtual time is the acked-op
         counter; each event parks the driver, performs the surgery
         with nothing in flight, and releases.  A kill reboots from
         the node's own store — WAL recovery plus the persisted
         ownership table; a partition only tears the transport down
         and back up. *)
      let base = Atomic.get acked in
      let reboots = ref 0 in
      let partitions = ref 0 in
      let table_kept = ref true in
      List.iter
        (fun (e : Chaos.Fault.node_event) ->
          let n = e.n_node in
          let d =
            match e.n_kind with
            | Chaos.Fault.Node_kill d | Chaos.Fault.Node_partition d -> d
          in
          wait_acked (base + e.n_at);
          park ();
          Atomic.set outage true;
          let pre_owners = Cluster.Node.owners nodes.(n) in
          let pre_version = Cluster.Node.version nodes.(n) in
          (match e.n_kind with
          | Chaos.Fault.Node_kill _ ->
              Service.Conn.shutdown servers.(n);
              Replica.Primary.kill prims.(n);
              Replica.Primary.stop prims.(n)
          | Chaos.Fault.Node_partition _ -> Service.Conn.shutdown servers.(n));
          release ();
          wait_acked (base + e.n_at + d);
          park ();
          (match e.n_kind with
          | Chaos.Fault.Node_kill _ ->
              incr reboots;
              prims.(n) <- mk_primary n;
              nodes.(n) <-
                Cluster.Node.create ~node_id:n ~nslots
                  ~owners:(Array.make nslots 0) ~apply_tid prims.(n);
              if
                Cluster.Node.owners nodes.(n) <> pre_owners
                || Cluster.Node.version nodes.(n) <> pre_version
              then table_kept := false
          | Chaos.Fault.Node_partition _ -> incr partitions);
          servers.(n) <- serve n;
          Atomic.set outage false;
          release ())
        plan;
      (* Tail load with the cluster whole again, then the merged-history
         oracle check: replay the acked history sequentially and compare
         every key's value as the cluster serves it now. *)
      let plan_end =
        List.fold_left
          (fun a (e : Chaos.Fault.node_event) ->
            let d =
              match e.n_kind with
              | Chaos.Fault.Node_kill d | Chaos.Fault.Node_partition d -> d
            in
            max a (e.n_at + d))
          0 plan
      in
      wait_acked (base + plan_end + 50);
      Atomic.set stop true;
      let history = Domain.join driver in
      joined := true;
      let dt = Unix.gettimeofday () -. t0 in
      let expected = Chaos.Oracle.replay_state ~ops:history in
      let final =
        List.filter_map
          (fun k ->
            match Cluster.Router.call router (Service.Codec.Get k) with
            | Service.Codec.Value v -> Some (k, v)
            | Service.Codec.Not_found -> None
            | r ->
                failwith
                  (Printf.sprintf "cluster: final get %d answered %s" k
                     (Service.Codec.reply_to_string r)))
          (List.init keyrange Fun.id)
      in
      let sum f = List.fold_left (fun a s -> a + f s) 0 mig_stats in
      {
        cr_acked = List.length history;
        cr_kops = float_of_int (List.length history) /. dt /. 1e3;
        cr_failed = Atomic.get failed;
        cr_unavailable = Atomic.get unavailable;
        cr_moved = Cluster.Router.moved_seen router;
        cr_shed = Cluster.Router.shed_seen router;
        cr_migrations = List.length mig_stats;
        cr_snap_kvs = sum (fun s -> s.Cluster.Migrate.mg_snap_kvs);
        cr_snap_pages = sum (fun s -> s.Cluster.Migrate.mg_snap_pages);
        cr_catchup_records = sum (fun s -> s.Cluster.Migrate.mg_catchup_records);
        cr_catchup_rounds = sum (fun s -> s.Cluster.Migrate.mg_catchup_rounds);
        cr_delta_ships =
          List.length
            (List.filter (fun s -> s.Cluster.Migrate.mg_delta) mig_stats);
        cr_snap = snap;
        cr_reboots = !reboots;
        cr_partitions = !partitions;
        cr_table_kept = !table_kept;
        cr_oracle_ok = expected = final;
      })

let run_cluster ~ds ~schemes ~nnodes ~seed ~smoke =
  if nnodes < 2 then begin
    Format.eprintf "cluster needs at least 2 nodes (--nodes)@.";
    exit 2
  end;
  let structure_name = match ds with "all" -> "hashmap" | d -> d in
  let churn = if smoke then 1200 else 4000 in
  (* A parked reader sees [churn] ops, then [churn] more: a robust
     backlog must end under a quarter of one round, a non-robust one
     above a quarter of both. *)
  let bound = churn / 4 in
  let floor = 2 * churn / 4 in
  let slack = Stalled.slack Service.Shard.default_config.Service.Shard.smr in
  let nmig = if smoke then 2 else 4 in
  (* The smoke plan is fixed by hand so CI always exercises both fault
     shapes: the migration target dies (the grant must survive its
     reboot) and the bulk owner partitions (availability dips, nothing
     to recover). *)
  let plan =
    if smoke then
      [
        { Chaos.Fault.n_at = 40; n_node = 1; n_kind = Chaos.Fault.Node_kill 60 };
        {
          Chaos.Fault.n_at = 160;
          n_node = 0;
          n_kind = Chaos.Fault.Node_partition 60;
        };
      ]
    else
      Chaos.Fault.node_plan ~seed:(seed + 13) ~steps:600 ~nnodes ~events:3
        ~outage:80
  in
  Format.printf
    "## cluster (%s, %d nodes x 2 shards, %d slots, zipf, %d migrations, \
     churn %d%s)@."
    structure_name nnodes Cluster.Ring.default_nslots nmig churn
    (if smoke then ", smoke" else "");
  List.iter
    (fun e -> Format.printf "   %s@." (Chaos.Fault.node_event_to_string e))
    plan;
  Format.printf "%-18s %6s %7s %5s %7s %6s %5s %8s %5s %7s %8s %4s %4s %3s@."
    "scheme" "Kops" "acked" "fail" "unavail" "moved" "shed" "snap-kvs"
    "delta" "catchup" "snap-unr" "reb" "part" "ok";
  let verdict = report (if smoke then "cluster smoke" else "cluster") in
  let check = check verdict in
  let has_kill =
    List.exists
      (fun (e : Chaos.Fault.node_event) ->
        match e.n_kind with Chaos.Fault.Node_kill _ -> true | _ -> false)
      plan
  in
  let snaps = ref [] in
  List.iter
    (fun scheme_name ->
      let r =
        cluster_run_one ~scheme_name ~structure_name ~nnodes ~seed ~churn
          ~nmig ~plan
      in
      snaps := r.cr_snap :: !snaps;
      check (r.cr_failed = 0)
        (Printf.sprintf
           "%s: %d routed calls failed outside an outage window" scheme_name
           r.cr_failed);
      check r.cr_oracle_ok
        (scheme_name
       ^ ": cluster state diverged from the oracle replay of the acked history");
      check r.cr_table_kept
        (scheme_name ^ ": a rebooted node lost its persisted ownership table");
      check (r.cr_snap_kvs > 0)
        (scheme_name ^ ": migration bootstrap shipped no bindings");
      check
        (r.cr_catchup_rounds >= r.cr_migrations)
        (scheme_name ^ ": migrations ran without catch-up rounds");
      check
        ((not has_kill) || r.cr_reboots >= 1)
        (scheme_name ^ ": the plan's kill never rebooted a node");
      check (r.cr_delta_ships >= 1)
        (scheme_name
       ^ ": the back-migration shipped a full copy where the far side held \
          the matching base (expected a delta chain)");
      Format.printf
        "%-18s %6.1f %7d %5d %7d %6d %5d %8d %5d %7d %8d %4d %4d %3s@."
        scheme_name r.cr_kops r.cr_acked r.cr_failed r.cr_unavailable
        r.cr_moved r.cr_shed r.cr_snap_kvs r.cr_delta_ships
        r.cr_catchup_records r.cr_snap.Stalled.at_2n r.cr_reboots
        r.cr_partitions
        (if r.cr_failed = 0 && r.cr_oracle_ok && r.cr_table_kept then "ok"
         else "DIV");
      cluster_emit ~phase:"route" ~scheme:scheme_name ~structure:structure_name
        ~nodes:nnodes
        [
          ("acked_kops", r.cr_kops);
          ("acked_ops", float_of_int r.cr_acked);
          ("failed", float_of_int r.cr_failed);
          ("unavailable", float_of_int r.cr_unavailable);
          ("moved", float_of_int r.cr_moved);
          ("shed", float_of_int r.cr_shed);
        ];
      cluster_emit ~phase:"migrate" ~scheme:scheme_name
        ~structure:structure_name ~nodes:nnodes
        [
          ("migrations", float_of_int r.cr_migrations);
          ("snap_kvs", float_of_int r.cr_snap_kvs);
          ("snap_pages", float_of_int r.cr_snap_pages);
          ("catchup_records", float_of_int r.cr_catchup_records);
          ("catchup_rounds", float_of_int r.cr_catchup_rounds);
          ("delta_ships", float_of_int r.cr_delta_ships);
        ];
      cluster_emit ~phase:"snapshot" ~scheme:scheme_name
        ~structure:structure_name ~nodes:nnodes
        [
          ("snap_unreclaimed_at_n", float_of_int r.cr_snap.Stalled.at_n);
          ("snap_unreclaimed", float_of_int r.cr_snap.Stalled.at_2n);
          ("bound", float_of_int bound);
        ];
      cluster_emit ~phase:"faults" ~scheme:scheme_name
        ~structure:structure_name ~nodes:nnodes
        [
          ("reboots", float_of_int r.cr_reboots);
          ("partitions", float_of_int r.cr_partitions);
          ("table_kept", if r.cr_table_kept then 1.0 else 0.0);
          ("oracle_ok", if r.cr_oracle_ok then 1.0 else 0.0);
        ])
    schemes;
  Format.printf "@.";
  (* The robustness contrast: the parked snapshot shipper is the
     paper's stalled adversary at cluster scale. *)
  let snaps = List.rev !snaps in
  if smoke then note verdict (Stalled.contrast snaps);
  judge_stalled verdict ~what:"parked snapshot shipper" ~slack ~bound ~floor
    snaps;
  finish verdict
    ~ok:
      (if smoke then
         Some
           "zero lost acks through live migration and node faults, merged \
            acked history oracle-identical, cutover record kept across \
            reboot, back-migration shipped a delta chain, snapshot-shipping \
            backlog judged by each scheme's robust flag"
       else None)

let rec dispatch figure ds paper threads duration active plot csv metrics_csv
    prom repeat dist schemes_arg head_backend shards_arg stalled_shards rate
    mixname churn mailbox_cap chaos_steps chaos_seed faults_arg bound smoke
    transport zc nodes_arg snap_every delta =
  (* --head-backend: rebase every Hyaline entry of a sweep list onto
     the requested Head backend (dwcas|llsc|packed); baselines and
     schemes without that variant pass through unchanged. *)
  let rebase names =
    if head_backend = "default" then names
    else List.map (Registry.scheme_with_backend ~backend:head_backend) names
  in
  (match csv with
  | Some path when !csv_channel = None ->
      let oc = open_out path in
      output_string oc
        (match String.lowercase_ascii figure with
        | "serve" when transport <> "inproc" -> transport_csv_header
        | "serve" -> serve_csv_header
        | "chaos" -> chaos_csv_header
        | "replicate" -> rep_csv_header
        | "cluster" -> cluster_csv_header
        | _ -> csv_header);
      csv_channel := Some oc
  | _ -> ());
  (match metrics_csv with
  | Some path when !metrics_channel = None ->
      let oc = open_out path in
      output_string oc metrics_header;
      metrics_channel := Some oc
  | _ -> ());
  (match prom with
  | Some path when !prom_channel = None -> prom_channel := Some (open_out path)
  | _ -> ());
  let sc = scale_of ~paper ~threads ~duration ~repeat ~dist in
  let ds_list = match ds with "all" -> all_ds | d -> [ d ] in
  let tplot = if plot then `Threads else `No in
  match String.lowercase_ascii figure with
  | "serve" ->
      let schemes =
        rebase
          (match schemes_arg with
          | [] ->
              if transport = "inproc" then
                [ "ebr"; "hyaline"; "hyaline1s"; "crystalline" ]
              else [ "hyaline" ]
          | l -> l)
      in
      if smoke then
        if zc = "remote" then run_serve_zc_smoke () else run_serve_smoke ()
      else if transport = "inproc" then
        run_serve ~sc ~ds ~schemes ~shards:shards_arg ~stalled:stalled_shards
          ~rate ~mixname ~churn ~mailbox_cap ~plot
      else
        run_serve_transport ~sc ~ds ~schemes ~shards:shards_arg ~transport
          ~mixname ~mailbox_cap
  | "chaos" ->
      let schemes =
        rebase
          (match schemes_arg with
          | [] -> [ "ebr"; "hyalines"; "hyaline1s"; "crystalline" ]
          | l -> l)
      in
      run_chaos ~ds ~schemes ~classes:faults_arg ~steps:chaos_steps
        ~seed:chaos_seed ~bound ~shards:shards_arg ~smoke ~plot
  | "replicate" ->
      let schemes =
        rebase
          (match schemes_arg with
          | [] -> [ "ebr"; "hyalines"; "crystalline" ]
          | l -> l)
      in
      run_replicate ~sc ~ds ~schemes ~shards:shards_arg ~smoke ~plot
        ~snap_every ~delta
  | "cluster" ->
      let schemes =
        rebase
          (match schemes_arg with
          | [] -> [ "ebr"; "hyalines"; "crystalline" ]
          | l -> l)
      in
      run_cluster ~ds ~schemes ~nnodes:nodes_arg ~seed:chaos_seed ~smoke
  | "table1" ->
      Format.printf "## Table 1 — scheme properties@.";
      Figures.table1 Format.std_formatter;
      Format.printf
        "@.(retire-cost microbenchmarks: `dune exec bench/main.exe`)@."
  | "fig8" | "fig9" ->
      run_sweep ~plot ~sc ~ds:ds_list ~schemes:(rebase Figures.figure8_schemes)
        ~mix:Driver.write_heavy
        ~fig_label:"Fig. 8/9 (x86 write-heavy 50i/50d)"
  | "fig11" | "fig12" ->
      run_sweep ~plot ~sc ~ds:ds_list ~schemes:(rebase Figures.figure8_schemes)
        ~mix:Driver.read_mostly
        ~fig_label:"Fig. 11/12 (x86 read-mostly 90g/10p)"
  | "fig13" | "fig14" ->
      run_sweep ~plot ~sc ~ds:ds_list ~schemes:(rebase Figures.ppc_schemes)
        ~mix:Driver.write_heavy
        ~fig_label:"Fig. 13/14 (LL/SC backend, write-heavy)"
  | "fig15" | "fig16" ->
      run_sweep ~plot ~sc ~ds:ds_list ~schemes:(rebase Figures.ppc_schemes)
        ~mix:Driver.read_mostly
        ~fig_label:"Fig. 15/16 (LL/SC backend, read-mostly)"
  | "fig10a" ->
      emit_rows
        ~plot:(if plot then `Stalled else `No)
        (Printf.sprintf "Fig. 10a (robustness: %d active + stalled, hashmap)"
           active)
        (fun emit -> Figures.robustness ~sc ~active ~emit)
  | "fig10b" ->
      emit_rows ~plot:tplot "Fig. 10b (trimming, hashmap, 32 slots)"
        (fun emit -> Figures.trimming ~sc ~emit)
  | "ablate-batch" ->
      emit_rows ~plot:tplot "Ablation: Hyaline batch size (hashmap)"
        (fun emit -> Figures.ablate_batch ~sc ~emit)
  | "ablate-slots" ->
      emit_rows ~plot:tplot "Ablation: Hyaline slot count (hashmap)"
        (fun emit -> Figures.ablate_slots ~sc ~emit)
  | "ablate-freq" ->
      emit_rows "Ablation: Hyaline-S era frequency, 1 stalled (hashmap)"
        (fun emit -> Figures.ablate_freq ~sc ~emit)
  | "ablate-spurious" ->
      emit_rows ~plot:tplot
        "Ablation: LL/SC spurious failure rate (hashmap)" (fun emit ->
          Figures.ablate_spurious ~sc ~emit)
  | "ablate-skew" ->
      emit_rows "Ablation: key skew, uniform vs Zipf (hashmap)" (fun emit ->
          Figures.ablate_skew ~sc ~emit)
  | "lag" ->
      List.iter
        (fun structure_name ->
          emit_lag_rows ~plot
            (Printf.sprintf "Reclamation lag (retire→free) — %s"
               structure_name)
            (fun emit ->
              Figures.reclamation_lag ~sc ~structure_name
                ~stalled_counts:[ 0; 1 ] ~emit ()))
        ds_list
  | "ablate" | "ablations" ->
      List.iter
        (fun f ->
          dispatch f "hashmap" paper threads duration active plot csv
            metrics_csv prom repeat dist schemes_arg head_backend shards_arg
            stalled_shards rate mixname churn mailbox_cap chaos_steps
            chaos_seed faults_arg bound smoke transport zc nodes_arg
            snap_every delta)
        [
          "ablate-batch"; "ablate-slots"; "ablate-freq"; "ablate-spurious";
          "ablate-skew";
        ]
  | "all" -> dispatch_all sc ds_list active plot
  | other ->
      Format.eprintf
        "unknown figure %S (try table1, fig8..fig16, fig10a, fig10b, lag, \
         ablate-batch, ablate-slots, ablate-freq, ablate-spurious, serve, \
         chaos, replicate, cluster, all)@."
        other;
      exit 2

and dispatch_all sc ds_list active plot =
  let tplot = if plot then `Threads else `No in
  Format.printf "## Table 1 — scheme properties@.";
  Figures.table1 Format.std_formatter;
  Format.printf "@.";
  run_sweep ~plot ~sc ~ds:ds_list ~schemes:Figures.figure8_schemes
    ~mix:Driver.write_heavy ~fig_label:"Fig. 8/9 (x86 write-heavy 50i/50d)";
  emit_rows
    ~plot:(if plot then `Stalled else `No)
    (Printf.sprintf "Fig. 10a (robustness: %d active + stalled, hashmap)"
       active)
    (fun emit -> Figures.robustness ~sc ~active ~emit);
  emit_rows ~plot:tplot "Fig. 10b (trimming, hashmap, 32 slots)" (fun emit ->
      Figures.trimming ~sc ~emit);
  run_sweep ~plot ~sc ~ds:ds_list ~schemes:Figures.figure8_schemes
    ~mix:Driver.read_mostly ~fig_label:"Fig. 11/12 (x86 read-mostly 90g/10p)";
  run_sweep ~plot ~sc ~ds:ds_list ~schemes:Figures.ppc_schemes ~mix:Driver.write_heavy
    ~fig_label:"Fig. 13/14 (LL/SC backend, write-heavy)";
  run_sweep ~plot ~sc ~ds:ds_list ~schemes:Figures.ppc_schemes ~mix:Driver.read_mostly
    ~fig_label:"Fig. 15/16 (LL/SC backend, read-mostly)";
  emit_rows ~plot:tplot "Ablation: Hyaline batch size (hashmap)" (fun emit ->
      Figures.ablate_batch ~sc ~emit);
  emit_rows ~plot:tplot "Ablation: Hyaline slot count (hashmap)" (fun emit ->
      Figures.ablate_slots ~sc ~emit);
  emit_rows "Ablation: Hyaline-S era frequency, 1 stalled (hashmap)"
    (fun emit -> Figures.ablate_freq ~sc ~emit);
  emit_rows ~plot:tplot "Ablation: LL/SC spurious failure rate (hashmap)"
    (fun emit -> Figures.ablate_spurious ~sc ~emit)

open Cmdliner

let figure =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FIGURE"
        ~doc:
          "Which result to regenerate: table1, fig8, fig9, fig10a, fig10b, \
           fig11..fig16, ablate-batch, ablate-slots, ablate-freq, \
           ablate-spurious, ablate (all four), serve (the KV service \
           sweep), chaos (the fault-injection matrix), replicate (the \
           durable-primary matrix), cluster (the multi-daemon migration \
           matrix), or all.")

let ds =
  Arg.(
    value & opt string "all"
    & info [ "ds" ] ~docv:"STRUCTURE"
        ~doc:"Data structure: list, hashmap, bonsai, nmtree, or all.")

let paper =
  Arg.(
    value & flag
    & info [ "paper" ]
        ~doc:
          "Use the paper's full-scale parameters (50k prefill, 10s runs, \
           wide thread sweep).  Very slow on small machines.")

let threads =
  Arg.(
    value
    & opt (list int) []
    & info [ "threads" ] ~docv:"N,N,..."
        ~doc:"Override the thread-count sweep, e.g. --threads 1,2,4,8.")

let duration =
  Arg.(
    value
    & opt (some float) None
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Per-data-point run time.")

let active =
  Arg.(
    value & opt int 2
    & info [ "active" ] ~docv:"N"
        ~doc:"Active worker threads in the fig10a robustness experiment.")

let plot =
  Arg.(
    value & flag
    & info [ "plot" ]
        ~doc:"Also render each figure as ASCII charts (one marker per \
              scheme), like the paper's plots.")

let csv =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE"
        ~doc:"Also append every data point to $(docv) as CSV.")

let metrics_csv =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-csv" ] ~docv:"FILE"
        ~doc:
          "For instrumented figures (lag): append one CSV row per data \
           point with lag percentiles, event totals and final gauges to \
           $(docv).")

let prom =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom" ] ~docv:"FILE"
        ~doc:
          "For instrumented figures (lag): append each run's \
           Prometheus-format metrics dump to $(docv).")

let repeat =
  Arg.(
    value
    & opt (some int) None
    & info [ "repeat" ] ~docv:"N"
        ~doc:
          "Runs averaged per data point (the paper uses 5; the quick            scale defaults to 1).")

let dist =
  Arg.(
    value
    & opt (some string) None
    & info [ "dist" ] ~docv:"DIST"
        ~doc:
          "Key distribution for every run of the sweep: uniform, zipf \
           (theta 0.99), or zipf:THETA.")

let schemes_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "schemes" ] ~docv:"S,S,..."
        ~doc:
          "(serve) Schemes to sweep, e.g. ebr,hyaline,hyaline1s.  Default: \
           ebr, hyaline, hyaline1s.")

let head_backend_arg =
  Arg.(
    value
    & opt string "default"
    & info [ "head-backend" ] ~docv:"B"
        ~doc:
          "Rebase the Hyaline schemes of the selected figure/serve/chaos \
           sweep onto this Head backend: dwcas (the default pairs), llsc, \
           or packed.  Baselines and schemes without the variant are left \
           unchanged.")

let shards_arg =
  Arg.(
    value & opt int 4
    & info [ "shards" ] ~docv:"N" ~doc:"(serve) Partitions / consumer domains.")

let stalled_shards =
  Arg.(
    value & opt int 0
    & info [ "stalled-shards" ] ~docv:"N"
        ~doc:
          "(serve) Park this many shard consumers inside a control-plane \
           bracket for the whole run (the robustness scenario: their \
           mailboxes fill and shed while their reservation pins garbage).")

let rate =
  Arg.(
    value
    & opt (some float) None
    & info [ "rate" ] ~docv:"REQ_PER_S"
        ~doc:
          "(serve) Open-loop arrival rate, pool-wide.  Without it the load \
           is closed-loop (each client waits for its reply).")

let mixname =
  Arg.(
    value & opt string "read"
    & info [ "mix" ] ~docv:"MIX"
        ~doc:"(serve) Operation mix: read (90/5/3/2) or write (40/30/20/10).")

let churn =
  Arg.(
    value
    & opt (some int) None
    & info [ "churn" ] ~docv:"OPS"
        ~doc:
          "(serve) Worker churn: each client slot re-spawns its domain every \
           $(docv) requests (transparency on the serving path).")

let mailbox_cap =
  Arg.(
    value & opt int 256
    & info [ "mailbox-cap" ] ~docv:"N"
        ~doc:"(serve) Per-shard mailbox bound; a full mailbox sheds.")

let chaos_steps =
  Arg.(
    value & opt int 600
    & info [ "chaos-steps" ] ~docv:"N"
        ~doc:"(chaos) Virtual steps per run (one request per step).")

let chaos_seed =
  Arg.(
    value & opt int 42
    & info [ "chaos-seed" ] ~docv:"SEED"
        ~doc:
          "(chaos) Plan + workload seed.  The same seed replays the same \
           faults at the same virtual timestamps with byte-identical trace \
           and matrix output.")

let faults_arg =
  Arg.(
    value
    & opt (list string) [ "mixed" ]
    & info [ "faults" ] ~docv:"CLASS,..."
        ~doc:
          "(chaos) Fault classes to run, each a matrix section: stall, \
           crash, oom, net, churn, or mixed.")

let bound =
  Arg.(
    value & opt int 96
    & info [ "bound" ] ~docv:"BLOCKS"
        ~doc:
          "(chaos) Robustness bound: max tolerated control-plane \
           retired-unreclaimed backlog measured when a crash is detected.")

let smoke =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "(chaos) CI gate: run the fixed crash+oom+net plan twice against \
           hyaline-s, crystalline and ebr; exit 1 unless replays are \
           identical, the oracle passes, and each scheme stays within \
           --bound exactly when it is robust.  (serve) CI gate: a seeded \
           request stream must answer identically over the unix and shm \
           transports.  (replicate, cluster) CI gate: besides their \
           oracles, a parked snapshot reader's backlog must stay flat and \
           under the bound for every robust scheme in --schemes and keep \
           growing for every other one.")

let transport_arg =
  Arg.(
    value
    & opt string "inproc"
    & info [ "transport" ] ~docv:"KIND"
        ~doc:
          "(serve) Where the requests travel: $(b,inproc) (the mailbox \
           sweep, no wire), $(b,unix) (socket RTT), $(b,shm) (mmap'd ring \
           RTT, no syscall per op), or $(b,all) (unix and shm side by \
           side).")

let zc_arg =
  Arg.(
    value
    & opt string "off"
    & info [ "zc" ] ~docv:"MODE"
        ~doc:
          "(serve --smoke) $(b,remote) switches the smoke to the \
           cross-process zero-copy gates: an arena-backed shm daemon must \
           answer a seeded stream byte-identically by reference and by \
           copy, a stalled remote reservation must stay bounded under \
           handoff while epoch balloons, and a client that dies holding \
           its bracket must have its slot swept.  $(b,off) (default) runs \
           the plain transport smoke.")

let nodes_arg =
  Arg.(
    value & opt int 2
    & info [ "nodes" ] ~docv:"N"
        ~doc:"(cluster) Daemon count in the consistent-hash ring.")

let snap_every_arg =
  Arg.(
    value & opt int 0
    & info [ "snap-every" ] ~docv:"N"
        ~doc:
          "(replicate) Snapshot every N acked rounds during the failover \
           phase's pre-follower history (0 = only the single mid-history \
           snapshot).  With $(b,--delta) the cadence publishes base+delta \
           chains for recovery to bootstrap through.")

let delta_arg =
  Arg.(
    value & flag
    & info [ "delta" ]
        ~doc:
          "(replicate) Run primaries with dirty-set tracking and incremental \
           snapshots, measure the delta-vs-full traversal amplification, and \
           park a stalled reader inside a delta traversal for the robustness \
           contrast.")

let cmd =
  let doc =
    "Regenerate the tables and figures of 'Hyaline: Fast and Transparent \
     Lock-Free Memory Reclamation' (PLDI 2021)."
  in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(
      const dispatch $ figure $ ds $ paper $ threads $ duration $ active
      $ plot $ csv $ metrics_csv $ prom $ repeat $ dist $ schemes_arg
      $ head_backend_arg $ shards_arg $ stalled_shards $ rate $ mixname
      $ churn $ mailbox_cap $ chaos_steps $ chaos_seed $ faults_arg $ bound
      $ smoke $ transport_arg $ zc_arg $ nodes_arg $ snap_every_arg
      $ delta_arg)

let () = exit (Cmd.eval cmd)
