open Smr

(* Crystalline(-L) (Nikolaev & Ravindran, the Hyaline authors'
   wait-free successor): one reservation word per thread holding
   ⟨era, list⟩ — the thread's published protection era packed with the
   head of the retirement list other threads have handed it.  Era 0 is
   "not in a bracket"; the global era clock starts at 1, so a live
   reservation is never 0.

   The word reuses the Head.Packed bit layout from the Hyaline slots
   (href field ⇒ era, index field ⇒ list head): enter and leave are
   single-word exchanges of constants, retire is a value CAS on the
   pointer half, and deref publication is a value CAS on the era half.

   ISSUE 6 names lib/smr for this file; it lives here instead because
   the implementation is built from the hyaline_core toolbox (Batch,
   Internal, Head.Packed) and smr cannot depend back on it. *)

(* The reservation word: the thread's protection era merged with its
   incoming retirement-list head.  All operations are single-word
   atomics; [exchange] is wait-free. *)
module type WORD = sig
  type t
  type word

  val backend : string

  val max_era : int
  (** Largest publishable era (field width of the packed backend); the
      tracker's clock saturates here. *)

  val make : unit -> t
  val get : t -> word

  val exchange : t -> era:int -> word
  (** Swap in [⟨era, nil⟩]; return the old word.  [~era:0] is leave's
      wait-free detach, a fresh era is enter's/trim's wait-free
      publication. *)

  val cas_era : t -> expected:word -> int -> bool
  (** Replace the era field, keeping the list pointer, if the word
      still equals [expected] (deref's era raise).  Only the owner
      calls this, so the only concurrent mutation is an insert. *)

  val cas_insert : t -> expected:word -> Smr.Hdr.t -> bool
  (** Replace the list pointer, keeping the era, if the word still
      equals [expected] (retire's insertion). *)

  val era : word -> int

  val empty : word -> bool
  (** [empty w] iff [hptr w] is nil, without materializing the pointer
      (the packed backend's empty-bracket fast path). *)

  val hptr : word -> Smr.Hdr.t
end

type boxed = { era : int; hptr : Hdr.t }

module Boxed_word : WORD = struct
  type word = boxed
  type t = word Atomic.t

  let idle = { era = 0; hptr = Hdr.nil }
  let backend = "boxed"
  let max_era = max_int
  let make () = Prims.Padded.atomic idle
  let get = Atomic.get

  let exchange t ~era =
    Atomic.exchange t (if era = 0 then idle else { era; hptr = Hdr.nil })

  (* Physical equality on the immutable box, as in Head.Dwcas. *)
  let cas_era t ~expected e =
    Atomic.compare_and_set t expected { expected with era = e }

  let cas_insert t ~expected n =
    Atomic.compare_and_set t expected { expected with hptr = n }

  let era w = w.era
  let empty w = Hdr.is_nil w.hptr
  let hptr w = w.hptr
end

(* The packed word proper: Head.Packed's layout verbatim — era in the
   22-bit href field, [uid + 1] in the 40-bit index field, decoded
   through the wait-free [Hdr.of_uid] registry.  Nothing allocates.
   The value CAS is ABA-safe by the same argument as the packed heads
   (uid permanence), with the same single tombstone-decode window the
   retire path re-checks; [cas_era] needs no such check because it
   copies the pointer bits verbatim without decoding them. *)
module Packed_word : WORD = struct
  module P = Head.Packed

  type t = int Atomic.t
  type word = int

  let backend = "packed"
  let max_era = P.max_href
  let make () = Prims.Padded.atomic 0
  let get = Atomic.get
  let exchange t ~era = Atomic.exchange t (P.with_href 0 era)
  let cas_era t ~expected e = Atomic.compare_and_set t expected (P.with_href expected e)

  let cas_insert t ~expected n =
    Atomic.compare_and_set t expected (P.with_hptr expected n)

  let era = P.href
  let empty w = P.index w = 0
  let hptr = P.hptr
end

module Make (W : WORD) : Tracker_ext.S = struct
  (* Per-tid state, owner-written on every allocation and retire.
     Records, builders, reaps and reservation words are Prims.Padded
     blocks, so no two threads share a cache line. *)
  type local = {
    mutable allocs : int;
    builder : Batch.t;
    reap : Internal.reap; (* reused; drain empties it *)
  }

  type t = {
    cfg : Config.t;
    k : int; (* = nthreads: one reservation word per thread *)
    batch_size : int;
    rsrv : W.t array;
    era : int Atomic.t;
    locals : local array;
    stats : Stats.t;
  }

  let name =
    "Crystalline" ^ if W.backend = "boxed" then "" else "(" ^ W.backend ^ ")"

  let robust = true
  let transparent = false (* needs a dedicated reservation word per thread *)

  let create cfg =
    Config.validate cfg;
    let k = cfg.nthreads in
    {
      cfg;
      k;
      batch_size = max cfg.batch_min (k + 1);
      rsrv = Array.init k (fun _ -> W.make ());
      era = Prims.Padded.atomic 1;
      locals =
        Array.init k (fun _ ->
            Prims.Padded.copy
              {
                allocs = 0;
                builder = Batch.create ();
                reap = Internal.new_reap ();
              });
      stats = Stats.create ();
    }

  let slots t = t.k
  let pending t ~tid = Batch.size t.locals.(tid).builder

  (* Wait-free: an idle word (era 0) is touched by nobody else — the
     era skip in [retire_batch] covers it — so publication is a plain
     exchange.  A slightly stale era is harmless: deref raises it on
     demand. *)
  let enter t ~tid =
    let old = W.exchange t.rsrv.(tid) ~era:(Atomic.get t.era) in
    assert (W.era old = 0 && W.empty old)

  (* Dereference the whole detached list: every node linked into our
     word stays pinned (its batch's count cannot reach zero before our
     decrement lands — the inserter counted us), so the decode in
     [W.hptr] can never meet a tombstone here. *)
  let drop_detached t ~tid old =
    let reap = t.locals.(tid).reap in
    (if not (W.empty old) then
       ignore (Internal.traverse reap ~next:(W.hptr old) ~handle:Hdr.nil));
    Internal.drain t.stats ~tid reap

  (* Wait-free: clear the era and detach the list in one exchange. *)
  let leave t ~tid =
    let old = W.exchange t.rsrv.(tid) ~era:0 in
    assert (W.era old > 0);
    drop_detached t ~tid old

  (* Trim without ending the bracket: republish at the current era and
     release everything batched to us so far.  Unlike Hyaline-1's trim
     this detaches (no handle bookkeeping): the exchange is atomic, so
     a concurrent insert lands either on the old list (we drop it) or
     on the fresh word (we owe it at the next trim/leave). *)
  let trim t ~tid =
    let old = W.exchange t.rsrv.(tid) ~era:(Atomic.get t.era) in
    assert (W.era old > 0);
    drop_detached t ~tid old

  let alloc_hook t ~tid hdr =
    Stats.on_alloc t.stats;
    let l = t.locals.(tid) in
    let c = l.allocs + 1 in
    l.allocs <- c;
    if c mod t.cfg.epoch_freq = 0 then begin
      (* CAS, not FAA: the clock must saturate at the packed era-field
         width.  A lost race just means someone else advanced — the
         clock moved either way.  At saturation every live reservation
         equals every birth era, the skip stops firing and the scheme
         degrades to insert-into-every-active-thread: still safe, no
         longer distance-bounded (docs/CRYSTALLINE.md). *)
      let e = Atomic.get t.era in
      if e < W.max_era then ignore (Atomic.compare_and_set t.era e (e + 1))
    end;
    hdr.Hdr.birth <- Atomic.get t.era

  (* Raise our era to [e] keeping the list pointer.  Only inserts race
     with this CAS (the owner is here), so it fails at most once per
     concurrent insert — lock-free, and in practice a couple of
     iterations.  No tombstone concern: the pointer bits are copied
     undecoded, and nodes in our list are pinned (see drop_detached),
     so a value recurrence would denote the same pinned header. *)
  let rec publish w cur e =
    if W.era cur < e then
      if not (W.cas_era w ~expected:cur e) then publish w (W.get w) e

  (* Top-level, like [publish], so a dereference allocates nothing. *)
  let rec deref t w a proj =
    let v = Atomic.get a in
    let alloc = Atomic.get t.era in
    if W.era (W.get w) >= alloc then begin
      if t.cfg.check_uaf then Hdr.check_not_freed "Crystalline.read" (proj v);
      v
    end
    else begin
      publish w (W.get w) alloc;
      deref t w a proj
    end

  let read t ~tid ~idx:_ a proj = deref t t.rsrv.(tid) a proj

  let transfer _ ~tid:_ ~from_idx:_ ~to_idx:_ = ()

  (* Wait-free retire (the -L flavour): one bounded pass over the k
     reservation words.  A word is skipped when its era is 0 (idle) or
     older than the batch's minimum birth — a reader's published era
     bounds the birth of anything it can hold (deref raises the era
     before returning), so such a thread references no node of this
     batch.  This skip is what bounds garbage under stalls: a thread
     frozen at era e only ever receives batches containing at least
     one node born at or before e, and there are finitely many. *)
  let retire_batch t ~tid =
    let l = t.locals.(tid) in
    let min_birth = Batch.min_birth l.builder in
    let refnode = Batch.seal l.builder ~adjs:0 in
    let reap = l.reap in
    let inserts = ref 0 in
    let node = ref refnode.Hdr.batch_link in
    (* The backoff record is created only after a first lost CAS, so
       uncontended retires allocate none. *)
    let attempt word =
      let cur = W.get word in
      let e = W.era cur in
      if e = 0 || e < min_birth then true
      else begin
        let n = !node in
        assert (not (Hdr.is_nil n));
        let prev = W.hptr cur in
        (* Same tombstone window as Internal.insert_batch: a stale
           word whose head node was freed after [get] decodes to the
           shared sentinel, and the packed backend's value CAS could
           still ABA-succeed (the uid survives recycling, the word can
           revisit its old bits).  Fail the attempt and re-read; a
           non-tombstone decode is ABA-safe by uid permanence. *)
        if Hdr.is_tombstone prev then false
        else begin
          n.Hdr.next <- prev;
          if W.cas_insert word ~expected:cur n then begin
            node := n.Hdr.batch_link;
            incr inserts;
            true
          end
          else false
        end
      end
    in
    let rec retry word b =
      Prims.Backoff.once b;
      if not (attempt word) then retry word b
    in
    for slot = 0 to t.k - 1 do
      let word = t.rsrv.(slot) in
      if not (attempt word) then retry word (Prims.Backoff.create ())
    done;
    (* Final adjustment: each of the [inserts] recipients owes one
       decrement at its next trim/leave; the count reads zero exactly
       once all have landed (immediately if nobody was reachable). *)
    Internal.add_ref reap refnode !inserts;
    Internal.drain t.stats ~tid reap

  let retire t ~tid hdr =
    Tracker.retire_block t.stats ~tid hdr;
    let builder = t.locals.(tid).builder in
    Batch.add builder hdr;
    if Batch.size builder >= t.batch_size then retire_batch t ~tid

  let flush t ~tid =
    let builder = t.locals.(tid).builder in
    if not (Batch.is_empty builder) then begin
      while Batch.size builder < t.batch_size do
        let dummy = Hdr.create () in
        dummy.Hdr.birth <- Atomic.get t.era;
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
      ("era", Atomic.get t.era);
      ("batch_pending_total", !pend_total);
      ("batch_pending_max", !pend_max);
    ]
end

include Make (Boxed_word)
module Packed = Make (Packed_word)
