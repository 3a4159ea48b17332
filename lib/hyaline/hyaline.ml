open Smr

module Make (H : Head.OPS) : Tracker_ext.S = struct
  module I = Internal.Make (H)

  (* Per-tid state, owner-written on every bracket.  Records, builders,
     reaps and heads are Prims.Padded blocks, so no two threads share a
     cache line. *)
  type local = {
    mutable slot : int; (* slot chosen by the last enter *)
    mutable handle : Hdr.t;
    builder : Batch.t;
    reap : Internal.reap; (* reused; drain empties it *)
  }

  type t = {
    cfg : Config.t;
    k : int;
    adjs : int;
    batch_size : int;
    heads : H.t array;
    locals : local array;
    stats : Stats.t;
  }

  let name = if H.backend = "dwcas" then "Hyaline" else "Hyaline(" ^ H.backend ^ ")"
  let robust = false
  let transparent = true

  let create cfg =
    Config.validate cfg;
    let k = cfg.slots in
    {
      cfg;
      k;
      adjs = Adjs.of_k k;
      (* Batches need strictly more nodes than slots (§3.2): one per
         slot list plus the dedicated NRef node. *)
      batch_size = max cfg.batch_min (k + 1);
      heads = Array.init k (fun _ -> H.make ());
      locals =
        Array.init cfg.nthreads (fun _ ->
            Prims.Padded.copy
              {
                slot = 0;
                handle = Hdr.nil;
                builder = Batch.create ();
                reap = Internal.new_reap ();
              });
      stats = Stats.create ();
    }

  let slots t = t.k
  let pending t ~tid = Batch.size t.locals.(tid).builder

  let enter t ~tid =
    let l = t.locals.(tid) in
    let slot = tid land (t.k - 1) in
    let snap = H.enter_faa t.heads.(slot) in
    l.slot <- slot;
    l.handle <- H.hptr snap

  let leave t ~tid =
    let l = t.locals.(tid) in
    let _count = I.leave_slot t.heads.(l.slot) ~handle:l.handle l.reap in
    l.handle <- Hdr.nil;
    Internal.drain t.stats ~tid l.reap

  let trim t ~tid =
    let l = t.locals.(tid) in
    let handle, _count = I.trim_slot t.heads.(l.slot) ~handle:l.handle l.reap in
    l.handle <- handle;
    Internal.drain t.stats ~tid l.reap

  let alloc_hook t ~tid:_ (_ : Hdr.t) = Stats.on_alloc t.stats

  (* Basic Hyaline needs no deref protocol (Fig. 1a: "No deref in
     basic Hyaline") — an unprotected atomic load suffices. *)
  let read t ~tid:_ ~idx:_ a proj =
    let v = Atomic.get a in
    if t.cfg.check_uaf then Hdr.check_not_freed "Hyaline.read" (proj v);
    v

  let transfer _ ~tid:_ ~from_idx:_ ~to_idx:_ = ()

  let retire_batch t ~tid =
    let l = t.locals.(tid) in
    let refnode = Batch.seal l.builder ~adjs:t.adjs in
    let reap = l.reap in
    I.insert_batch
      (fun s -> t.heads.(s))
      ~k:t.k refnode
      ~skip:(fun ~slot:_ -> false)
      ~after_insert:(fun ~slot:_ ~href:_ -> ())
      reap;
    Internal.drain t.stats ~tid reap

  let retire t ~tid hdr =
    Tracker.retire_block t.stats ~tid hdr;
    let builder = t.locals.(tid).builder in
    Batch.add builder hdr;
    if Batch.size builder >= t.batch_size then retire_batch t ~tid

  (* Finalize a partial batch by padding with dummy nodes (§2.4: local
     batches "can be immediately finalized by allocating a finite
     number of dummy nodes"), making the thread fully off the hook. *)
  let flush t ~tid =
    let builder = t.locals.(tid).builder in
    if not (Batch.is_empty builder) then begin
      while Batch.size builder < t.batch_size do
        let dummy = Hdr.create () in
        Tracker.retire_block t.stats ~tid dummy;
        Batch.add builder dummy
      done;
      retire_batch t ~tid
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
      ("slots", t.k);
      ("batch_pending_total", !pend_total);
      ("batch_pending_max", !pend_max);
    ]
end

include Make (Head.Dwcas)
module Llsc = Make (Llsc_head)
module Packed = Make (Head.Packed)
