type t = {
  cfg : Config.t;
  clock : int Atomic.t;
  lower : int Atomic.t array; (* each on lines of its own *)
  upper : int Atomic.t array;
  limbo : Limbo.t array;
  stats : Stats.t;
}

let name = "IBR"
let robust = true
let transparent = false

let create cfg =
  Config.validate cfg;
  {
    cfg;
    clock = Prims.Padded.atomic 0;
    lower = Array.init cfg.nthreads (fun _ -> Prims.Padded.atomic max_int);
    upper = Array.init cfg.nthreads (fun _ -> Prims.Padded.atomic min_int);
    limbo = Array.init cfg.nthreads (fun _ -> Limbo.create ());
    stats = Stats.create ();
  }

let enter t ~tid =
  let e = Atomic.get t.clock in
  Atomic.set t.lower.(tid) e;
  Atomic.set t.upper.(tid) e

let leave t ~tid =
  Atomic.set t.lower.(tid) max_int;
  Atomic.set t.upper.(tid) min_int

let trim t ~tid =
  leave t ~tid;
  enter t ~tid

let alloc_hook t ~tid hdr =
  Stats.on_alloc t.stats;
  if Limbo.tick_alloc t.limbo.(tid) ~every:t.cfg.epoch_freq then
    Atomic.incr t.clock;
  hdr.Hdr.birth <- Atomic.get t.clock

(* 2GE protected read: keep raising our published [upper] until the
   clock is quiescent across one pointer load, so any block reachable
   through the loaded value was born at or before our interval's upper
   end. *)
let read t ~tid ~idx:_ a proj =
  let up = t.upper.(tid) in
  let rec loop () =
    let v = Atomic.get a in
    let e = Atomic.get t.clock in
    if Atomic.get up = e then begin
      if t.cfg.check_uaf then Hdr.check_not_freed "Ibr.read" (proj v);
      v
    end
    else begin
      Atomic.set up e;
      loop ()
    end
  in
  loop ()

let conflicts t hdr =
  let birth = hdr.Hdr.birth and retired = hdr.Hdr.retire_era in
  let n = Array.length t.lower in
  let rec go i =
    if i >= n then false
    else
      let lo = Atomic.get t.lower.(i) and up = Atomic.get t.upper.(i) in
      (* Intervals intersect unless the block died before the
         reservation began or was born after it last advanced. *)
      if retired >= lo && birth <= up then true else go (i + 1)
  in
  go 0

let scan t ~tid =
  Limbo.sweep t.limbo.(tid)
    ~keep:(fun h -> conflicts t h)
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
