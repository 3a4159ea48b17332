type t = {
  cfg : Config.t;
  clock : int Atomic.t;
  reservations : int Atomic.t array; (* each on lines of its own *)
  limbo : Limbo.t array;
  stats : Stats.t;
}

let name = "Epoch"
let robust = false
let transparent = false
let inactive = max_int

let create cfg =
  Config.validate cfg;
  {
    cfg;
    clock = Prims.Padded.atomic 0;
    reservations =
      Array.init cfg.nthreads (fun _ -> Prims.Padded.atomic inactive);
    limbo = Array.init cfg.nthreads (fun _ -> Limbo.create ());
    stats = Stats.create ();
  }

let enter t ~tid = Atomic.set t.reservations.(tid) (Atomic.get t.clock)
let leave t ~tid = Atomic.set t.reservations.(tid) inactive

let trim t ~tid =
  leave t ~tid;
  enter t ~tid

let alloc_hook t ~tid hdr =
  Stats.on_alloc t.stats;
  if Limbo.tick_alloc t.limbo.(tid) ~every:t.cfg.epoch_freq then
    Atomic.incr t.clock;
  hdr.Hdr.birth <- Atomic.get t.clock

let read t ~tid:_ ~idx:_ a proj =
  let v = Atomic.get a in
  if t.cfg.check_uaf then Hdr.check_not_freed "Ebr.read" (proj v);
  v

let min_reservation t =
  let m = ref inactive in
  Array.iter
    (fun r ->
      let v = Atomic.get r in
      if v < !m then m := v)
    t.reservations;
  !m

let scan t ~tid =
  let min_res = min_reservation t in
  Limbo.sweep t.limbo.(tid)
    ~keep:(fun h -> h.Hdr.retire_era >= min_res)
    ~free:(Tracker.free_block t.stats ~tid)

let transfer _ ~tid:_ ~from_idx:_ ~to_idx:_ = ()

let retire t ~tid hdr =
  hdr.Hdr.retire_era <- Atomic.get t.clock;
  Tracker.retire_block t.stats ~tid hdr;
  Limbo.push t.limbo.(tid) hdr;
  if Limbo.should_scan t.limbo.(tid) ~every:t.cfg.empty_freq then scan t ~tid

let flush t ~tid = scan t ~tid
let stats t = t.stats

let gauges t =
  let total = ref 0 and deepest = ref 0 in
  Array.iter
    (fun l ->
      let s = Limbo.size l in
      total := !total + s;
      if s > !deepest then deepest := s)
    t.limbo;
  [ ("limbo_total", !total); ("limbo_max", !deepest) ]
