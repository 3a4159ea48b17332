open Smr

(* The merged single word of Fig. 4: the owner's presence bit packed
   with the list head.  Two representations implement {!WORD}:
   immutable pairs in one Atomic ({!Boxed_word}, the historical
   default) and a genuinely packed immediate int ({!Packed_word});
   see Hyaline1's interface comment. *)
type word = { active : bool; hptr : Hdr.t }

let idle = { active = false; hptr = Hdr.nil }
let active_empty = { active = true; hptr = Hdr.nil }

module type WORD = sig
  type t
  type word

  val backend : string
  val make : unit -> t
  val get : t -> word

  val exchange_active : t -> word
  (** Swap in [{active = true; hptr = nil}]; return the old word
      (enter's wait-free publication). *)

  val exchange_idle : t -> word
  (** Swap in [{active = false; hptr = nil}]; return the old word
      (leave's wait-free detach). *)

  val cas_insert : t -> expected:word -> Hdr.t -> bool
  (** Replace the pointer field, keeping the bit, if the word still
      equals [expected] (retire's insertion). *)

  val active : word -> bool

  val empty : word -> bool
  (** [empty w] iff [hptr w] is nil — but without materializing the
      pointer, so the packed backend's empty-bracket hot path stays a
      single int comparison (no registry decode, no nil load). *)

  val hptr : word -> Hdr.t
end

module Boxed_word : WORD = struct
  type nonrec word = word
  type t = word Atomic.t

  let backend = "boxed"
  let make () = Prims.Padded.atomic idle
  let get = Atomic.get
  let exchange_active t = Atomic.exchange t active_empty
  let exchange_idle t = Atomic.exchange t idle

  (* Physical equality on the immutable box, as in Head.Dwcas. *)
  let cas_insert t ~expected n =
    Atomic.compare_and_set t expected { expected with hptr = n }

  let active w = w.active
  let empty w = Hdr.is_nil w.hptr
  let hptr w = w.hptr
end

(* Fig. 4's word for real: bit 0 is the presence bit, the upper bits
   hold [uid + 1] (0 = nil), decoded through the wait-free
   [Hdr.of_uid] registry.  Enter/leave are single-word exchanges of
   constants and nothing allocates.  The CAS is value-based; safe
   because uids permanently denote one physical header and the
   credit arithmetic only depends on the word's value (the paper's
   own hardware-CAS argument — see DESIGN.md §1), modulo the one
   tombstone window the retire path re-checks (see [Make]'s attempt
   and Hdr.is_tombstone). *)
module Packed_word : WORD = struct
  type t = int Atomic.t
  type word = int

  let backend = "packed"
  let make () = Prims.Padded.atomic 0
  let get = Atomic.get
  let exchange_active t = Atomic.exchange t 1
  let exchange_idle t = Atomic.exchange t 0
  let index_of (h : Hdr.t) = h.Hdr.uid + 1

  let cas_insert t ~expected n =
    Atomic.compare_and_set t expected ((index_of n lsl 1) lor (expected land 1))

  let active w = w land 1 = 1
  let empty w = w lsr 1 = 0

  let hptr w =
    let i = w lsr 1 in
    if i = 0 then Hdr.nil else Hdr.of_uid (i - 1)
end

module Make
    (E : sig
      val eras : bool
    end)
    (W : WORD) : Tracker_ext.S = struct
  (* Per-tid state, owner-written on every bracket and allocation.
     Records, builders, reaps, words and access eras are Prims.Padded
     blocks, so no two threads share a cache line. *)
  type local = {
    mutable handle : Hdr.t;
    mutable allocs : int;
    builder : Batch.t;
    reap : Internal.reap; (* reused; drain empties it *)
  }

  type t = {
    cfg : Config.t;
    k : int; (* = nthreads: one slot per thread *)
    batch_size : int;
    heads : W.t array;
    accesses : int Atomic.t array; (* 1S: per-slot access eras *)
    era : int Atomic.t;
    locals : local array;
    stats : Stats.t;
  }

  let name =
    (if E.eras then "Hyaline-1S" else "Hyaline-1")
    ^ if W.backend = "boxed" then "" else "(" ^ W.backend ^ ")"

  let robust = E.eras
  let transparent = false (* "almost": needs a dedicated slot per thread *)

  let create cfg =
    Config.validate cfg;
    let k = cfg.nthreads in
    {
      cfg;
      k;
      batch_size = max cfg.batch_min (k + 1);
      heads = Array.init k (fun _ -> W.make ());
      accesses = Array.init k (fun _ -> Prims.Padded.atomic 0);
      era = Prims.Padded.atomic 1;
      locals =
        Array.init k (fun _ ->
            Prims.Padded.copy
              {
                handle = Hdr.nil;
                allocs = 0;
                builder = Batch.create ();
                reap = Internal.new_reap ();
              });
      stats = Stats.create ();
    }

  let slots t = t.k
  let pending t ~tid = Batch.size t.locals.(tid).builder

  (* Wait-free: an inactive slot is touched by nobody else (retire
     skips it), so publication is a plain exchange of a constant. *)
  let enter t ~tid =
    let old = W.exchange_active t.heads.(tid) in
    assert ((not (W.active old)) && W.empty old);
    t.locals.(tid).handle <- Hdr.nil

  (* Wait-free: detach the whole list and drop the bit in one
     exchange; the owner then dereferences every node it detached, down
     to and including the trim handle (whose decrement it still owes —
     the handle node is deliberately kept referenced by trim so a
     recycled node can never masquerade as the traversal boundary). *)
  let leave t ~tid =
    let old = W.exchange_idle t.heads.(tid) in
    assert (W.active old);
    let l = t.locals.(tid) in
    (* [empty] keeps the uncontended bracket free of the pointer
       decode: the packed registry lookup only happens when there is
       a detached list to traverse. *)
    (if not (W.empty old) then
       ignore (Internal.traverse l.reap ~next:(W.hptr old) ~handle:l.handle));
    l.handle <- Hdr.nil;
    Internal.drain t.stats ~tid l.reap

  (* Fig. 3-style trim: dereference everything below the current first
     node without touching the bit; the first node itself stays
     undecremented and becomes the new handle, exactly like the
     multi-slot trim. *)
  let trim t ~tid =
    let cur = W.hptr (W.get t.heads.(tid)) in
    let l = t.locals.(tid) in
    (if cur != l.handle then
       ignore (Internal.traverse l.reap ~next:cur.Hdr.next ~handle:l.handle));
    l.handle <- cur;
    Internal.drain t.stats ~tid l.reap

  let alloc_hook t ~tid hdr =
    Stats.on_alloc t.stats;
    if E.eras then begin
      let l = t.locals.(tid) in
      let c = l.allocs + 1 in
      l.allocs <- c;
      if c mod t.cfg.epoch_freq = 0 then ignore (Atomic.fetch_and_add t.era 1);
      hdr.Hdr.birth <- Atomic.get t.era
    end

  (* Fig. 5 deref; with a 1:1 thread-slot mapping touch is an
     ordinary store (only the owner ever writes its access era).
     Top-level so a dereference allocates nothing. *)
  let rec deref t access a proj =
    let v = Atomic.get a in
    let alloc = Atomic.get t.era in
    if Atomic.get access >= alloc then begin
      if t.cfg.check_uaf then Hdr.check_not_freed "Hyaline1s.read" (proj v);
      v
    end
    else begin
      Atomic.set access alloc;
      deref t access a proj
    end

  let read t ~tid ~idx:_ a proj =
    if not E.eras then begin
      let v = Atomic.get a in
      if t.cfg.check_uaf then Hdr.check_not_freed "Hyaline1.read" (proj v);
      v
    end
    else deref t t.accesses.(tid) a proj

  let transfer _ ~tid:_ ~from_idx:_ ~to_idx:_ = ()

  let retire_batch t ~tid =
    let l = t.locals.(tid) in
    let min_birth = Batch.min_birth l.builder in
    (* No Adjs arithmetic in Hyaline-1: the batch's count is simply
       the number of slots it reaches (Fig. 4). *)
    let refnode = Batch.seal l.builder ~adjs:0 in
    let reap = l.reap in
    let inserts = ref 0 in
    let node = ref refnode.Hdr.batch_link in
    (* As in Internal.insert_batch, the backoff record is created only
       after a first lost CAS, so uncontended retires allocate none. *)
    let attempt head slot =
      let cur = W.get head in
      let skip =
        (not (W.active cur))
        || (E.eras && Atomic.get t.accesses.(slot) < min_birth)
      in
      if skip then true
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
          if W.cas_insert head ~expected:cur n then begin
            node := n.Hdr.batch_link;
            incr inserts;
            true
          end
          else false
        end
      end
    in
    let rec retry head slot b =
      Prims.Backoff.once b;
      if not (attempt head slot) then retry head slot b
    in
    for slot = 0 to t.k - 1 do
      let head = t.heads.(slot) in
      if not (attempt head slot) then
        retry head slot (Prims.Backoff.create ())
    done;
    (* Final adjustment: the owners of the [inserts] slots each hold
       one reference; when all have traversed, the count returns to
       zero (immediately so if no slot was active). *)
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
        if E.eras then dummy.Hdr.birth <- Atomic.get t.era;
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
