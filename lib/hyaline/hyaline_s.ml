open Smr

module Make (H : Head.OPS) : Tracker_ext.S = struct
  module I = Internal.Make (H)

  (* Per-tid state, written by its owner on every bracket and
     allocation.  The record, its builder and reap, and every slot cell
     below are Prims.Padded blocks: threads in different slots then
     share no cache line. *)
  type local = {
    mutable slot : int; (* slot chosen by the last enter *)
    mutable handle : Hdr.t;
    mutable allocs : int;
    builder : Batch.t;
    reap : Internal.reap; (* reused; drain empties it *)
  }

  type t = {
    cfg : Config.t;
    k : int Atomic.t; (* current slot count; grows when adaptive *)
    heads : H.t Directory.t;
    accesses : int Atomic.t Directory.t; (* per-slot access eras *)
    acks : int Atomic.t Directory.t; (* per-slot Ack counters *)
    era : int Atomic.t; (* the AllocEra clock *)
    locals : local array;
    stats : Stats.t;
  }

  let name =
    if H.backend = "dwcas" then "Hyaline-S" else "Hyaline-S(" ^ H.backend ^ ")"
  let robust = true
  let transparent = true

  let create cfg =
    Config.validate cfg;
    let kmin = cfg.slots in
    {
      cfg;
      k = Prims.Padded.atomic kmin;
      heads = Directory.create ~kmin H.make;
      accesses = Directory.create ~kmin (fun () -> Prims.Padded.atomic 0);
      acks = Directory.create ~kmin (fun () -> Prims.Padded.atomic 0);
      era = Prims.Padded.atomic 1;
      locals =
        Array.init cfg.nthreads (fun tid ->
            Prims.Padded.copy
              {
                slot = tid land (kmin - 1);
                handle = Hdr.nil;
                allocs = 0;
                builder = Batch.create ();
                reap = Internal.new_reap ();
              });
      stats = Stats.create ();
    }

  let slots t = Atomic.get t.k
  let pending t ~tid = Batch.size t.locals.(tid).builder

  (* §4.3: double the slot space.  Losers of the CAS just observe the
     winner's larger k; Directory.ensure is idempotent. *)
  let grow t =
    let kc = Atomic.get t.k in
    let k2 = kc * 2 in
    Directory.ensure t.heads ~k:k2;
    Directory.ensure t.accesses ~k:k2;
    Directory.ensure t.acks ~k:k2;
    ignore (Atomic.compare_and_set t.k kc k2)

  (* Fig. 5 enter: walk away from slots whose Ack marks them as
     occupied by stalled threads; if every slot is marked, either
     grow (§4.3) or — capped mode — settle for the current slot (the
     interference regime of Figure 10a). *)
  (* Top-level rather than a local closure so the enter path does not
     allocate (the packed backend's bracket is allocation-free end to
     end). *)
  let rec scan_slot t slot attempts k =
    if Atomic.get (Directory.get t.acks slot) < t.cfg.ack_threshold then slot
    else if attempts + 1 >= k then
      if t.cfg.adaptive then begin
        grow t;
        let k' = Atomic.get t.k in
        (* Fresh slots have Ack = 0; restart the scan in the new
           region. *)
        scan_slot t (k land (k' - 1)) 0 k'
      end
      else slot
    else scan_slot t ((slot + 1) land (k - 1)) (attempts + 1) k

  let enter t ~tid =
    let l = t.locals.(tid) in
    let k = Atomic.get t.k in
    let slot = scan_slot t (l.slot land (k - 1)) 0 k in
    l.slot <- slot;
    let snap = H.enter_faa (Directory.get t.heads slot) in
    l.handle <- H.hptr snap

  let leave t ~tid =
    let l = t.locals.(tid) in
    let count =
      I.leave_slot (Directory.get t.heads l.slot) ~handle:l.handle l.reap
    in
    if count > 0 then
      ignore (Atomic.fetch_and_add (Directory.get t.acks l.slot) (-count));
    l.handle <- Hdr.nil;
    Internal.drain t.stats ~tid l.reap

  let trim t ~tid =
    let l = t.locals.(tid) in
    let handle, count =
      I.trim_slot (Directory.get t.heads l.slot) ~handle:l.handle l.reap
    in
    if count > 0 then
      ignore (Atomic.fetch_and_add (Directory.get t.acks l.slot) (-count));
    l.handle <- handle;
    Internal.drain t.stats ~tid l.reap

  (* Fig. 5 init_node: advance the era clock every Freq allocations
     and stamp the block's birth. *)
  let alloc_hook t ~tid hdr =
    Stats.on_alloc t.stats;
    let l = t.locals.(tid) in
    let c = l.allocs + 1 in
    l.allocs <- c;
    if c mod t.cfg.epoch_freq = 0 then ignore (Atomic.fetch_and_add t.era 1);
    hdr.Hdr.birth <- Atomic.get t.era

  (* Fig. 5 deref: publish (via the monotonic touch) an access era at
     least as recent as the clock before trusting the loaded value.
     Top-level, like [scan_slot], so a dereference allocates nothing. *)
  let rec deref t access a proj =
    let v = Atomic.get a in
    let alloc = Atomic.get t.era in
    if Atomic.get access >= alloc then begin
      if t.cfg.check_uaf then Hdr.check_not_freed "Hyaline_s.read" (proj v);
      v
    end
    else begin
      ignore (Prims.Xatomic.cas_max access alloc);
      deref t access a proj
    end

  let read t ~tid ~idx:_ a proj =
    deref t (Directory.get t.accesses t.locals.(tid).slot) a proj

  let transfer _ ~tid:_ ~from_idx:_ ~to_idx:_ = ()

  let retire_batch t ~tid ~k_now =
    let l = t.locals.(tid) in
    let min_birth = Batch.min_birth l.builder in
    let refnode = Batch.seal l.builder ~adjs:(Adjs.of_k k_now) in
    let reap = l.reap in
    I.insert_batch
      (fun s -> Directory.get t.heads s)
      ~k:k_now refnode
      ~skip:(fun ~slot ->
        (* Stale access era: nobody in this slot ever dereferenced a
           block as young as this batch. *)
        Atomic.get (Directory.get t.accesses slot) < min_birth)
      ~after_insert:(fun ~slot ~href ->
        ignore (Atomic.fetch_and_add (Directory.get t.acks slot) href))
      reap;
    Internal.drain t.stats ~tid reap

  let retire t ~tid hdr =
    Tracker.retire_block t.stats ~tid hdr;
    let builder = t.locals.(tid).builder in
    Batch.add builder hdr;
    let k_now = Atomic.get t.k in
    if Batch.size builder >= max t.cfg.batch_min (k_now + 1) then
      retire_batch t ~tid ~k_now

  let flush t ~tid =
    let builder = t.locals.(tid).builder in
    if not (Batch.is_empty builder) then begin
      let k_now = Atomic.get t.k in
      let target = max t.cfg.batch_min (k_now + 1) in
      while Batch.size builder < target do
        let dummy = Hdr.create () in
        (* Dummies are born now, so they never lower the batch's
           minimum birth era. *)
        dummy.Hdr.birth <- Atomic.get t.era;
        Tracker.retire_block t.stats ~tid dummy;
        Batch.add builder dummy
      done;
      retire_batch t ~tid ~k_now
    end

  let stats t = t.stats

  let gauges t =
    let pend_total = ref 0 and pend_max = ref 0 in
    Array.iter
      (fun l ->
        let s = Batch.size l.builder in
        pend_total := !pend_total + s;
        if s > !pend_max then pend_max := s)
      t.locals;
    [
      ("slots", Atomic.get t.k);
      ("batch_pending_total", !pend_total);
      ("batch_pending_max", !pend_max);
    ]
end

include Make (Head.Dwcas)
module Llsc = Make (Llsc_head)
module Packed = Make (Head.Packed)
