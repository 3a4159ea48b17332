type t = {
  cfg : Config.t;
  (* hazards.(tid).(idx): protected block, [Hdr.nil] when empty; each
     on lines of its own. *)
  hazards : Hdr.t Atomic.t array array;
  limbo : Limbo.t array;
  stats : Stats.t;
}

let name = "HP"
let robust = true
let transparent = false

let create cfg =
  Config.validate cfg;
  {
    cfg;
    hazards =
      Array.init cfg.nthreads (fun _ ->
          Array.init cfg.hazards (fun _ -> Prims.Padded.atomic Hdr.nil));
    limbo = Array.init cfg.nthreads (fun _ -> Limbo.create ());
    stats = Stats.create ();
  }

let enter _ ~tid:_ = ()

let leave t ~tid =
  Array.iter (fun slot -> Atomic.set slot Hdr.nil) t.hazards.(tid)

let trim t ~tid =
  leave t ~tid;
  enter t ~tid

let alloc_hook t ~tid:_ (_ : Hdr.t) = Stats.on_alloc t.stats

(* Publish-and-validate: after announcing the target we re-read the
   link; if it still designates the same value, no scan that started
   after our announcement can miss the protection, and any free
   decided before it must have been based on the link already having
   moved on — in which case the re-read differs and we retry. *)
let read t ~tid ~idx a proj =
  let slot = t.hazards.(tid).(idx) in
  let rec loop () =
    let v = Atomic.get a in
    let h = proj v in
    if Hdr.is_nil h then begin
      Atomic.set slot Hdr.nil;
      v
    end
    else begin
      Atomic.set slot h;
      let v' = Atomic.get a in
      if v' == v then
        (* No use-after-free assertion here, deliberately: reading the
           frozen successor cell of an already-unlinked node may
           legitimately yield an already-freed block, which the data
           structure then discards when its validating CAS fails.  The
           protection contract only covers blocks the caller goes on
           to dereference after a successful validation. *)
        v
      else loop ()
    end
  in
  loop ()

(* Keep a record node protected while the rolling read window moves
   past it: duplicate its hazard into a dedicated slot. *)
let transfer t ~tid ~from_idx ~to_idx =
  let slots = t.hazards.(tid) in
  Atomic.set slots.(to_idx) (Atomic.get slots.(from_idx))

let scan t ~tid =
  (* Snapshot every published hazard, then sweep our limbo against the
     snapshot.  [uid]s are unique per header, so a hashtable keyed by
     uid is an exact representation of the snapshot. *)
  let protected_uids = Hashtbl.create (t.cfg.nthreads * t.cfg.hazards) in
  Array.iter
    (Array.iter (fun slot ->
         let h = Atomic.get slot in
         if not (Hdr.is_nil h) then Hashtbl.replace protected_uids h.Hdr.uid ()))
    t.hazards;
  Limbo.sweep t.limbo.(tid)
    ~keep:(fun h -> Hashtbl.mem protected_uids h.Hdr.uid)
    ~free:(Tracker.free_block t.stats ~tid)

let retire t ~tid hdr =
  Tracker.retire_block t.stats ~tid hdr;
  Limbo.push t.limbo.(tid) hdr;
  (* Michael's threshold: scan once the limbo outgrows the total
     number of protection slots by a constant factor. *)
  let threshold =
    let slots = t.cfg.nthreads * t.cfg.hazards in
    max t.cfg.empty_freq (2 * slots)
  in
  if Limbo.size t.limbo.(tid) >= threshold then scan t ~tid

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
