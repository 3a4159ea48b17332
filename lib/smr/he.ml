type t = {
  cfg : Config.t;
  clock : int Atomic.t;
  (* eras.(tid).(idx): published protection eras, each on lines of its
     own; 0 = empty (the clock starts at 1 so a published era is never
     0). *)
  eras : int Atomic.t array array;
  limbo : Limbo.t array;
  stats : Stats.t;
}

let name = "HE"
let robust = true
let transparent = false
let empty = 0

let create cfg =
  Config.validate cfg;
  {
    cfg;
    clock = Prims.Padded.atomic 1;
    eras =
      Array.init cfg.nthreads (fun _ ->
          Array.init cfg.hazards (fun _ -> Prims.Padded.atomic empty));
    limbo = Array.init cfg.nthreads (fun _ -> Limbo.create ());
    stats = Stats.create ();
  }

let enter _ ~tid:_ = ()

let leave t ~tid =
  Array.iter (fun slot -> Atomic.set slot empty) t.eras.(tid)

let trim t ~tid =
  leave t ~tid;
  enter t ~tid

let alloc_hook t ~tid hdr =
  Stats.on_alloc t.stats;
  if Limbo.tick_alloc t.limbo.(tid) ~every:t.cfg.epoch_freq then
    Atomic.incr t.clock;
  hdr.Hdr.birth <- Atomic.get t.clock

let read t ~tid ~idx a _proj =
  let slot = t.eras.(tid).(idx) in
  let rec loop prev =
    let e = Atomic.get t.clock in
    if prev <> e then Atomic.set slot e;
    let v = Atomic.get a in
    if Atomic.get t.clock = e then
      (* As in Hp.read: a frozen cell of an unlinked node may point at
         a block whose lifetime ended before our era was published;
         the caller's validating CAS rejects it before any
         dereference, so no assertion here. *)
      v
    else loop e
  in
  loop (Atomic.get slot)

(* The protection is the published era value; copying it to another
   slot extends it past the source slot's reuse. *)
let transfer t ~tid ~from_idx ~to_idx =
  let slots = t.eras.(tid) in
  Atomic.set slots.(to_idx) (Atomic.get slots.(from_idx))

let protected_by_someone t hdr =
  let birth = hdr.Hdr.birth and retired = hdr.Hdr.retire_era in
  let n = Array.length t.eras in
  let rec go i =
    if i >= n then false
    else
      let slots = t.eras.(i) in
      let m = Array.length slots in
      let rec go_slot j =
        if j >= m then go (i + 1)
        else
          let e = Atomic.get slots.(j) in
          if e <> empty && e >= birth && e <= retired then true
          else go_slot (j + 1)
      in
      go_slot 0
  in
  go 0

let scan t ~tid =
  Limbo.sweep t.limbo.(tid)
    ~keep:(fun h -> protected_by_someone t h)
    ~free:(Tracker.free_block t.stats ~tid)

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
