(* Tests for the Hyaline family: unit tests of the building blocks,
   a white-box replay of the paper's Figure 2a scenario, the generic
   scheme battery over every variant/backend, the registry-wide
   stalled-reader cases, adaptive resizing, and randomized accounting
   properties. *)

open Smr
open Hyaline_core
open Test_support

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Adjs *)

let test_adjs_values () =
  Alcotest.(check int) "k=1" 0 (Adjs.of_k 1);
  Alcotest.(check int) "k=2" (1 lsl 62) (Adjs.of_k 2);
  Alcotest.(check int) "k=8 (paper example 2^61 for N=64 ~ 2^60 here)"
    (1 lsl 60) (Adjs.of_k 8);
  Alcotest.check_raises "k=3 rejected"
    (Invalid_argument "Adjs.log2: not a power of two") (fun () ->
      ignore (Adjs.of_k 3))

let test_adjs_log2 () =
  Alcotest.(check int) "log2 1" 0 (Adjs.log2 1);
  Alcotest.(check int) "log2 128" 7 (Adjs.log2 128)

let test_next_pow2 () =
  List.iter
    (fun (n, p) -> Alcotest.(check int) (Printf.sprintf "np2 %d" n) p (Adjs.next_pow2 n))
    [ (1, 1); (2, 2); (3, 4); (72, 128); (128, 128); (129, 256) ]

let prop_adjs_wraps =
  QCheck.Test.make ~name:"k * Adjs = 0 (mod 2^63) for all pow2 k" ~count:62
    QCheck.(int_range 0 61)
    (fun l ->
      let k = 1 lsl l in
      let adjs = Adjs.of_k k in
      (* k * adjs as wrapping multiplication *)
      k * adjs = 0)

let prop_adjs_partial_nonzero =
  QCheck.Test.make ~name:"m * Adjs <> 0 for 0 < m < k" ~count:100
    QCheck.(pair (int_range 1 16) (int_range 1 1000))
    (fun (l, m') ->
      let k = 1 lsl l in
      let m = 1 + (m' mod (k - 1 + 1)) in
      if m >= k then QCheck.assume_fail ()
      else m * Adjs.of_k k <> 0)

(* ------------------------------------------------------------------ *)
(* Directory *)

let test_directory_basic () =
  let counter = ref 0 in
  let d =
    Directory.create ~kmin:4 (fun () ->
        incr counter;
        !counter)
  in
  Alcotest.(check int) "kmin" 4 (Directory.kmin d);
  Alcotest.(check int) "initial capacity" 4 (Directory.capacity d);
  Alcotest.(check int) "level-0 slots created" 4 !counter;
  (* Slots are stable distinct cells. *)
  let s0 = Directory.get d 0 and s3 = Directory.get d 3 in
  Alcotest.(check bool) "distinct" true (s0 <> s3);
  Alcotest.(check bool) "stable" true (Directory.get d 0 = s0)

let test_directory_growth () =
  let d = Directory.create ~kmin:4 (fun () -> Atomic.make 0) in
  Directory.ensure d ~k:8;
  Alcotest.(check int) "capacity 8" 8 (Directory.capacity d);
  Directory.ensure d ~k:32;
  Alcotest.(check int) "capacity 32" 32 (Directory.capacity d);
  (* All 32 slots addressable and distinct cells. *)
  let cells = List.init 32 (Directory.get d) in
  List.iteri (fun i c -> Atomic.set c i) cells;
  List.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "cell %d" i) i (Atomic.get c))
    cells

let test_directory_unpublished () =
  let d = Directory.create ~kmin:4 (fun () -> ()) in
  Alcotest.check_raises "slot 4 not yet published"
    (Invalid_argument "Directory.get: slot not yet published") (fun () ->
      Directory.get d 4)

let test_directory_ensure_idempotent () =
  let d = Directory.create ~kmin:2 (fun () -> ref 0) in
  Directory.ensure d ~k:16;
  let c5 = Directory.get d 5 in
  Directory.ensure d ~k:16;
  Directory.ensure d ~k:8;
  Alcotest.(check bool) "cells survive re-ensure" true
    (Directory.get d 5 == c5)

let test_directory_concurrent_growth () =
  let d = Directory.create ~kmin:2 (fun () -> Atomic.make 0) in
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Directory.ensure d ~k:64))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "capacity 64" 64 (Directory.capacity d);
  (* Exactly one winner per level: writing through any published cell
     must be visible through the same cell later. *)
  Atomic.set (Directory.get d 63) 99;
  Alcotest.(check int) "stable winner" 99 (Atomic.get (Directory.get d 63))

(* ------------------------------------------------------------------ *)
(* Granule / LL-SC *)

let test_granule_ll_sc () =
  let g = Granule.make () in
  let h = Hdr.create () in
  let tok = Granule.ll g in
  Alcotest.(check int) "initial href" 0 (Granule.href tok);
  Alcotest.(check bool) "sc succeeds" true (Granule.sc g tok ~href:1 ~hptr:h);
  let href, hptr = Granule.peek g in
  Alcotest.(check int) "href stored" 1 href;
  Alcotest.(check bool) "hptr stored" true (hptr == h)

let test_granule_sc_fails_on_interference () =
  let g = Granule.make () in
  let tok = Granule.ll g in
  (* Interfering write to the *other* word of the granule. *)
  let tok2 = Granule.ll g in
  assert (Granule.sc g tok2 ~href:0 ~hptr:(Hdr.create ()));
  Alcotest.(check bool) "reservation lost" false
    (Granule.sc g tok ~href:5 ~hptr:(Granule.hptr tok))

let test_granule_spurious_injection () =
  let g = Granule.make ~spurious_every:3 () in
  let fails = ref 0 in
  for _ = 1 to 300 do
    let tok = Granule.ll g in
    if not (Granule.sc g tok ~href:Granule.(href tok) ~hptr:(Granule.hptr tok))
    then incr fails
  done;
  Alcotest.(check int) "one in three SCs fails spuriously" 100 !fails

let test_llsc_head_ops () =
  let h = Llsc_head.make () in
  let s0 = Llsc_head.read h in
  Alcotest.(check int) "initial href" 0 s0.Snap.href;
  let old = Llsc_head.enter_faa h in
  Alcotest.(check int) "faa returns old" 0 old.Snap.href;
  Alcotest.(check int) "faa incremented" 1 (Llsc_head.read h).Snap.href;
  let cur = Llsc_head.read h in
  let n = Hdr.create () in
  Alcotest.(check bool) "cas_ptr ok" true
    (Llsc_head.cas_ptr h ~expected:cur n);
  Alcotest.(check bool) "hptr swung" true ((Llsc_head.read h).Snap.hptr == n);
  (* Stale expected fails. *)
  Alcotest.(check bool) "stale cas_ref fails" false
    (Llsc_head.cas_ref h ~expected:cur 7)

let test_llsc_faa_with_spurious () =
  Llsc_head.spurious_every := 2;
  Fun.protect ~finally:(fun () -> Llsc_head.spurious_every := 0) @@ fun () ->
  let h = Llsc_head.make () in
  (* enter_faa must ride through injected SC failures. *)
  for i = 0 to 99 do
    let old = Llsc_head.enter_faa h in
    Alcotest.(check int) "monotonic" i old.Snap.href
  done

(* ------------------------------------------------------------------ *)
(* Packed head backend: the single-word encoding and its bit budget.
   A snap is an immediate int, so pack/unpack must roundtrip exactly
   at every field-width boundary and the overflow guard must reject
   anything the 22-bit reference count or 40-bit index cannot hold. *)

let test_packed_roundtrip () =
  let module P = Head.Packed in
  let href_err = Invalid_argument "Head.Packed.pack: href out of range" in
  let index_err = Invalid_argument "Head.Packed.pack: index out of range" in
  List.iter
    (fun href ->
      List.iter
        (fun index ->
          let s = P.pack_raw ~href ~index in
          Alcotest.(check int)
            (Printf.sprintf "href roundtrip %d/%d" href index)
            href (P.href s);
          Alcotest.(check int)
            (Printf.sprintf "index roundtrip %d/%d" href index)
            index (P.index s))
        [ 0; 1; P.max_index - 1; P.max_index ])
    [ 0; 1; P.max_href - 1; P.max_href ];
  Alcotest.check_raises "href overflow" href_err (fun () ->
      ignore (P.pack_raw ~href:(P.max_href + 1) ~index:0));
  Alcotest.check_raises "href negative" href_err (fun () ->
      ignore (P.pack_raw ~href:(-1) ~index:0));
  Alcotest.check_raises "index overflow" index_err (fun () ->
      ignore (P.pack_raw ~href:0 ~index:(P.max_index + 1)));
  Alcotest.check_raises "index negative" index_err (fun () ->
      ignore (P.pack_raw ~href:0 ~index:(-1)));
  (* Index 0 is the nil sentinel; real headers decode through the uid
     registry to the exact same physical header. *)
  Alcotest.(check bool) "index 0 decodes to nil" true
    (Hdr.is_nil (P.hptr (P.pack_raw ~href:5 ~index:0)));
  let h = Hdr.create () in
  let s = P.pack ~href:3 h in
  Alcotest.(check bool) "hptr roundtrip is physical" true (P.hptr s == h);
  Alcotest.(check int) "href rides along" 3 (P.href s)

let test_packed_head_ops () =
  let module P = Head.Packed in
  let head = P.make () in
  let s0 = P.read head in
  Alcotest.(check int) "initial href" 0 (P.href s0);
  Alcotest.(check bool) "initial hptr nil" true (Hdr.is_nil (P.hptr s0));
  let old = P.enter_faa head in
  Alcotest.(check int) "faa returns old" 0 (P.href old);
  Alcotest.(check int) "faa incremented" 1 (P.href (P.read head));
  let cur = P.read head in
  let n = Hdr.create () in
  Alcotest.(check bool) "cas_ptr ok" true (P.cas_ptr head ~expected:cur n);
  let cur' = P.read head in
  Alcotest.(check bool) "hptr swung" true (P.hptr cur' == n);
  Alcotest.(check int) "href preserved across cas_ptr" 1 (P.href cur');
  Alcotest.(check bool) "stale cas_ref fails" false
    (P.cas_ref head ~expected:cur 7);
  Alcotest.(check bool) "cas_ref ok" true (P.cas_ref head ~expected:cur' 0);
  let final = P.read head in
  Alcotest.(check int) "href updated" 0 (P.href final);
  Alcotest.(check bool) "hptr preserved across cas_ref" true
    (P.hptr final == n)

(* The tentpole's raison d'être: an uncontended enter/read/leave
   bracket on the packed backend performs no minor-heap allocation.
   1_000 brackets must allocate fewer than 1_000 words total — sub-one
   word per bracket proves the steady-state path, dereference
   included, is allocation-free (the slack absorbs the
   [Gc.minor_words] float boxing and any one-off lazy
   initialization).  Each bracket allocates one block first, so the
   era clock moves and the eras schemes' reads take their publish
   branch as well as the fast one. *)
let test_packed_bracket_zero_alloc (module T : Tracker.S) () =
  let t = T.create { Config.default with nthreads = 2; epoch_freq = 2 } in
  let hdr = Hdr.create () in
  let cell = Atomic.make hdr in
  let bracket () =
    T.enter t ~tid:0;
    T.alloc_hook t ~tid:0 hdr;
    ignore (T.read t ~tid:0 ~idx:0 cell Fun.id : Hdr.t);
    T.leave t ~tid:0
  in
  for _ = 1 to 100 do
    bracket ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    bracket ()
  done;
  let after = Gc.minor_words () in
  let per_bracket = (after -. before) /. 1_000. in
  if after -. before >= 1_000. then
    Alcotest.failf "packed bracket allocates: %.2f words/bracket" per_bracket

(* ------------------------------------------------------------------ *)
(* Regression for the packed tombstone/ABA window: a stale snapshot
   whose head node was freed in between decodes to the registry's
   tombstone, yet the value-based CAS can still ABA-succeed (the uid
   survives recycling and the word can revisit its old bits) — which
   used to link the shared sentinel into a live retirement list,
   sending traverse into an infinite loop (tombstone.next ==
   tombstone) and corrupting its nref.  Mock backends reproduce the
   interleaving deterministically: the first decode yields the real
   tombstone, every CAS "succeeds" (the ABA revisit).  The insert
   paths must reject the tombstone and retry from a fresh read, so
   the successful insertion links the real predecessor. *)

let fresh_tombstone () =
  let h = Hdr.create () in
  Hdr.set_retired h;
  Hdr.set_freed h;
  let t = Hdr.of_uid h.Hdr.uid in
  Hdr.set_live h;
  t

let test_insert_batch_tombstone_retry () =
  let tomb = fresh_tombstone () in
  Alcotest.(check bool) "mock sentinel is the tombstone" true
    (Hdr.is_tombstone tomb);
  let prev = Hdr.create () in
  prev.Hdr.ref_node <- prev;
  let decodes = ref 0 in
  let linked = ref Hdr.nil in
  let module Aba = struct
    type t = unit
    type snap = int

    let backend = "aba-mock"
    let make () = ()
    let read () = 1 (* href = 1: the slot looks occupied, so insert *)
    let enter_faa _ = assert false
    let cas_ref _ ~expected:_ _ = assert false

    (* Always succeed — the ABA revisit a value CAS cannot detect. *)
    let cas_ptr _ ~expected:_ n =
      Alcotest.(check bool) "tombstone never linked" false
        (Hdr.is_tombstone n.Hdr.next);
      linked := n;
      true

    let href s = s

    (* The first decode races the freed window; any re-read decodes
       the (recycled) real predecessor, as uid permanence
       guarantees. *)
    let hptr _ =
      incr decodes;
      if !decodes = 1 then tomb else prev
  end in
  let module I = Internal.Make (Aba) in
  let b = Batch.create () in
  List.iter (Batch.add b) [ Hdr.create (); Hdr.create () ];
  let refnode = Batch.seal b ~adjs:0 in
  let reap = Internal.new_reap () in
  I.insert_batch
    (fun _ -> ())
    ~k:1 refnode
    ~skip:(fun ~slot:_ -> false)
    ~after_insert:(fun ~slot:_ ~href:_ -> ())
    reap;
  Alcotest.(check int) "tombstone decode retried exactly once" 2 !decodes;
  Alcotest.(check bool) "inserted node links the real predecessor" true
    (!linked.Hdr.next == prev)

let test_hyaline1_retire_tombstone_retry () =
  let tomb = fresh_tombstone () in
  let prev = Hdr.create () in
  prev.Hdr.ref_node <- prev;
  let decodes = ref 0 in
  let linked = ref Hdr.nil in
  let module W : Hyaline1_core.WORD = struct
    type t = unit
    type word = int

    let backend = "aba-mock"
    let make () = ()

    (* Bit 0 = presence, as in Packed_word: the slot reads active and
       non-empty, so retire takes the insert path. *)
    let get () = 3
    let exchange_active () = 0
    let exchange_idle () = 1

    let cas_insert _ ~expected:_ n =
      Alcotest.(check bool) "tombstone never linked" false
        (Hdr.is_tombstone n.Hdr.next);
      linked := n;
      true

    let active w = w land 1 = 1
    let empty w = w lsr 1 = 0

    let hptr _ =
      incr decodes;
      if !decodes = 1 then tomb else prev
  end in
  let module T =
    Hyaline1_core.Make
      (struct
        let eras = false
      end)
      (W)
  in
  let t = T.create { Config.default with nthreads = 1; batch_min = 2 } in
  T.enter t ~tid:0;
  T.retire t ~tid:0 (Hdr.create ());
  T.retire t ~tid:0 (Hdr.create ());
  Alcotest.(check int) "tombstone decode retried exactly once" 2 !decodes;
  Alcotest.(check bool) "inserted node links the real predecessor" true
    (!linked.Hdr.next == prev);
  T.leave t ~tid:0

(* Same window in Crystalline's retire pass: the reservation word's
   era says "insert", the stale pointer half decodes to the tombstone;
   the value CAS would ABA-succeed, so the attempt must re-read. *)
let test_crystalline_retire_tombstone_retry () =
  let tomb = fresh_tombstone () in
  let prev = Hdr.create () in
  prev.Hdr.ref_node <- prev;
  let decodes = ref 0 in
  let linked = ref Hdr.nil in
  let module W : Crystalline.WORD = struct
    type t = int ref
    type word = int

    let backend = "aba-mock"
    let max_era = max_int
    let make () = ref 0

    (* The word carries just the era; [hptr] plays the stale decode. *)
    let get t = !t

    let exchange t ~era =
      let old = !t in
      t := era;
      old

    let cas_era _ ~expected:_ _ = true

    let cas_insert _ ~expected:_ n =
      Alcotest.(check bool) "tombstone never linked" false
        (Hdr.is_tombstone n.Hdr.next);
      linked := n;
      true

    let era w = w
    let empty _ = true

    let hptr _ =
      incr decodes;
      if !decodes = 1 then tomb else prev
  end in
  let module T = Crystalline.Make (W) in
  let t = T.create { Config.default with nthreads = 1; batch_min = 2 } in
  T.enter t ~tid:0;
  T.retire t ~tid:0 (Hdr.create ());
  T.retire t ~tid:0 (Hdr.create ());
  Alcotest.(check int) "tombstone decode retried exactly once" 2 !decodes;
  Alcotest.(check bool) "inserted node links the real predecessor" true
    (!linked.Hdr.next == prev);
  T.leave t ~tid:0

(* ------------------------------------------------------------------ *)
(* Batch *)

let test_batch_seal_structure () =
  let b = Batch.create () in
  let hs = List.init 5 (fun _ -> Hdr.create ()) in
  List.iter (Batch.add b) hs;
  Alcotest.(check int) "size" 5 (Batch.size b);
  let refnode = Batch.seal b ~adjs:42 in
  Alcotest.(check bool) "refnode is last added" true
    (refnode == List.nth hs 4);
  Alcotest.(check int) "adjs stored" 42 refnode.Hdr.adjs;
  Alcotest.(check int) "nref zeroed" 0 (Atomic.get refnode.Hdr.nref);
  let nodes = Batch.nodes refnode in
  Alcotest.(check int) "all nodes chained" 5 (List.length nodes);
  List.iter
    (fun h ->
      Alcotest.(check bool) "ref_node wired" true (h.Hdr.ref_node == refnode))
    nodes;
  Alcotest.(check bool) "builder reset" true (Batch.is_empty b)

let test_batch_min_birth () =
  let b = Batch.create () in
  Alcotest.(check int) "empty = max_int" max_int (Batch.min_birth b);
  let mk birth =
    let h = Hdr.create () in
    h.Hdr.birth <- birth;
    h
  in
  Batch.add b (mk 10);
  Batch.add b (mk 3);
  Batch.add b (mk 7);
  Alcotest.(check int) "min tracked" 3 (Batch.min_birth b);
  ignore (Batch.seal b ~adjs:0);
  Alcotest.(check int) "reset after seal" max_int (Batch.min_birth b)

let test_batch_seal_empty_rejected () =
  let b = Batch.create () in
  Alcotest.check_raises "empty seal" (Invalid_argument "Batch.seal: empty batch")
    (fun () -> ignore (Batch.seal b ~adjs:0))

(* ------------------------------------------------------------------ *)
(* Figure 2a white-box replay (simplified single-list version, k=1).

   Three threads interleave exactly as in the paper's worked example;
   we assert the NRef/HRef values and the reclamation points (steps
   (h) and (i)) match the narrative. *)

module H = Head.Dwcas
module I = Internal.Make (Head.Dwcas)

let test_figure_2a () =
  let stats = Stats.create () in
  let freed = Hashtbl.create 8 in
  let mk name =
    let h = Hdr.create () in
    h.Hdr.free_hook <- (fun () -> Hashtbl.replace freed name ());
    Hdr.set_retired h;
    h
  in
  let head = H.make () in
  let adjs = Adjs.of_k 1 in
  (* batch B1 = {r1 (NRef node), n1 (slot node)} *)
  let b = Batch.create () in
  let n1 = mk "n1" and r1 = mk "r1" in
  Batch.add b n1;
  Batch.add b r1;
  let ref1 = Batch.seal b ~adjs in
  assert (ref1 == r1);
  (* batch B2 = {r2, n2} *)
  let n2 = mk "n2" and r2 = mk "r2" in
  Batch.add b n2;
  Batch.add b r2;
  let ref2 = Batch.seal b ~adjs in
  let href () = (H.read head).Snap.href in
  (* (a) Thread 1 enters. *)
  let handle1 = (H.enter_faa head).Snap.hptr in
  Alcotest.(check int) "(a) HRef=1" 1 (href ());
  Alcotest.(check bool) "(a) handle1 = Null" true (Hdr.is_nil handle1);
  (* (b) Thread 1 retires N1 (batch B1); the list was empty so there is
     no predecessor to adjust. *)
  let reap = Internal.new_reap () in
  I.insert_batch (fun _ -> head) ~k:1 ref1
    ~skip:(fun ~slot:_ -> false)
    ~after_insert:(fun ~slot:_ ~href:_ -> ())
    reap;
  Internal.drain stats ~tid:0 reap;
  Alcotest.(check bool) "(b) head -> n1" true ((H.read head).Snap.hptr == n1);
  Alcotest.(check int) "(b) B1 NRef = 0" 0 (Atomic.get r1.Hdr.nref);
  (* (c) Thread 2 enters. *)
  let handle2 = (H.enter_faa head).Snap.hptr in
  Alcotest.(check bool) "(c) handle2 = n1" true (handle2 == n1);
  Alcotest.(check int) "(c) HRef=2" 2 (href ());
  (* (d) Thread 2 starts retiring N2 but stalls after the insertion,
     before adjusting the predecessor. *)
  let snap_d = H.read head in
  let stalled_href = snap_d.Snap.href in
  n2.Hdr.next <- snap_d.Snap.hptr;
  Alcotest.(check bool) "(d) insertion CAS" true (H.cas_ptr head ~expected:snap_d n2);
  (* (e) Thread 3 enters. *)
  let handle3 = (H.enter_faa head).Snap.hptr in
  Alcotest.(check bool) "(e) handle3 = n2" true (handle3 == n2);
  Alcotest.(check int) "(e) HRef=3" 3 (href ());
  (* (f) Thread 1 leaves: dereferences the whole list through handle
     Null.  N2 is first so only HRef drops for it; N1's counter goes
     negative and nothing is reclaimed yet. *)
  let reap = Internal.new_reap () in
  let _ = I.leave_slot head ~handle:handle1 reap in
  Internal.drain stats ~tid:0 reap;
  Alcotest.(check int) "(f) HRef=2" 2 (href ());
  Alcotest.(check int) "(f) B1 NRef = -1" (-1) (Atomic.get r1.Hdr.nref);
  Alcotest.(check int) "(f) nothing freed" 0 (Hashtbl.length freed);
  (* (g) Thread 2 resumes and completes the adjustment for N1. *)
  let reap = Internal.new_reap () in
  Internal.add_ref reap n1 (n1.Hdr.ref_node.Hdr.adjs + stalled_href);
  Internal.drain stats ~tid:0 reap;
  Alcotest.(check int) "(g) B1 NRef = 1" 1 (Atomic.get r1.Hdr.nref);
  Alcotest.(check int) "(g) still nothing freed" 0 (Hashtbl.length freed);
  (* (h) Thread 2 leaves and deallocates N1. *)
  let reap = Internal.new_reap () in
  let _ = I.leave_slot head ~handle:handle2 reap in
  Internal.drain stats ~tid:0 reap;
  Alcotest.(check bool) "(h) n1 freed" true (Hashtbl.mem freed "n1");
  Alcotest.(check bool) "(h) r1 freed" true (Hashtbl.mem freed "r1");
  Alcotest.(check bool) "(h) B2 survives" false (Hashtbl.mem freed "n2");
  (* (i) Thread 3 leaves and deallocates N2. *)
  let reap = Internal.new_reap () in
  let _ = I.leave_slot head ~handle:handle3 reap in
  Internal.drain stats ~tid:0 reap;
  Alcotest.(check bool) "(i) n2 freed" true (Hashtbl.mem freed "n2");
  Alcotest.(check bool) "(i) r2 freed" true (Hashtbl.mem freed "r2");
  Alcotest.(check int) "(i) HRef=0" 0 (href ());
  Alcotest.(check bool) "(i) list empty" true
    (Hdr.is_nil (H.read head).Snap.hptr);
  ignore ref2

(* Empty-slot credits (REF #3#): a batch retired with no active thread
   anywhere frees on the spot; with one active slot it is pinned until
   that thread leaves. *)
let test_empty_slot_credits () =
  let stats = Stats.create () in
  let k = 4 in
  let heads = Array.init k (fun _ -> H.make ()) in
  let freed = ref 0 in
  let mk () =
    let h = Hdr.create () in
    h.Hdr.free_hook <- (fun () -> incr freed);
    Hdr.set_retired h;
    h
  in
  let seal_batch () =
    let b = Batch.create () in
    for _ = 1 to k + 1 do
      Batch.add b (mk ())
    done;
    Batch.seal b ~adjs:(Adjs.of_k k)
  in
  (* All slots empty: immediate reclamation. *)
  let reap = Internal.new_reap () in
  I.insert_batch (fun s -> heads.(s)) ~k (seal_batch ())
    ~skip:(fun ~slot:_ -> false)
    ~after_insert:(fun ~slot:_ ~href:_ -> ())
    reap;
  Internal.drain stats ~tid:0 reap;
  Alcotest.(check int) "all-empty batch freed immediately" (k + 1) !freed;
  (* One active thread in slot 2: pinned until it leaves. *)
  freed := 0;
  let handle = (H.enter_faa heads.(2)).Snap.hptr in
  let reap = Internal.new_reap () in
  I.insert_batch (fun s -> heads.(s)) ~k (seal_batch ())
    ~skip:(fun ~slot:_ -> false)
    ~after_insert:(fun ~slot:_ ~href:_ -> ())
    reap;
  Internal.drain stats ~tid:0 reap;
  Alcotest.(check int) "pinned by slot 2" 0 !freed;
  let reap = Internal.new_reap () in
  let _ = I.leave_slot heads.(2) ~handle reap in
  Internal.drain stats ~tid:0 reap;
  Alcotest.(check int) "freed once slot 2 leaves" (k + 1) !freed

(* ------------------------------------------------------------------ *)
(* The scheme battery over every variant and backend. *)

let hyaline_expect = { reclaims = true; protects = true }

(* ------------------------------------------------------------------ *)
(* Ack-driven slot avoidance and §4.3 adaptive growth: stalled threads
   poison both initial slots; with [adaptive] the slot space doubles,
   without it the k stays capped. *)

let run_adaptive ~adaptive =
  let cfg =
    {
      Config.default with
      nthreads = 4;
      slots = 2;
      batch_min = 4;
      ack_threshold = 64;
      adaptive;
      check_uaf = true;
    }
  in
  let t = Hyaline_s.create cfg in
  let pool = Pool.create ~local_cache:0 () in
  let alloc ~tid =
    let b = Pool.alloc pool in
    b.Blk.hdr.Hdr.free_hook <- (fun () -> Pool.free pool b);
    Hyaline_s.alloc_hook t ~tid b.Blk.hdr;
    b
  in
  (* tids 1 and 2 map to slots 1 and 0; both enter, read once and stall
     forever. *)
  let link = Atomic.make (alloc ~tid:3) in
  Hyaline_s.enter t ~tid:1;
  ignore (Hyaline_s.read t ~tid:1 ~idx:0 link proj);
  Hyaline_s.enter t ~tid:2;
  ignore (Hyaline_s.read t ~tid:2 ~idx:0 link proj);
  (* tid 3 churns with tracked reads (keeping eras fresh wherever it
     sits) until Acks exile it from both poisoned slots. *)
  for _ = 1 to 4_000 do
    Hyaline_s.enter t ~tid:3;
    ignore (Hyaline_s.read t ~tid:3 ~idx:0 link proj);
    let b = alloc ~tid:3 in
    let old = Atomic.exchange link b in
    Hyaline_s.retire t ~tid:3 old.Blk.hdr;
    Hyaline_s.leave t ~tid:3
  done;
  Hyaline_s.flush t ~tid:3;
  (Hyaline_s.slots t, Stats.unreclaimed (Hyaline_s.stats t))

let test_adaptive_grows () =
  let slots, _ = run_adaptive ~adaptive:true in
  Alcotest.(check bool)
    (Printf.sprintf "slot space grew (k=%d)" slots)
    true (slots >= 4)

let test_capped_stays () =
  let slots, _ = run_adaptive ~adaptive:false in
  Alcotest.(check int) "k stays at the cap" 2 slots

let test_adaptive_bounds_garbage () =
  let _, unreclaimed_adaptive = run_adaptive ~adaptive:true in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive keeps garbage bounded (%d)" unreclaimed_adaptive)
    true
    (unreclaimed_adaptive < 2_000)

(* ------------------------------------------------------------------ *)
(* Pending-batch observability. *)

let test_pending_and_flush () =
  let cfg = { Config.default with nthreads = 2; slots = 2; batch_min = 16 } in
  let t = Hyaline.create cfg in
  let pool = Pool.create ~local_cache:0 () in
  Hyaline.enter t ~tid:0;
  for i = 1 to 5 do
    let b = Pool.alloc pool in
    b.Blk.hdr.Hdr.free_hook <- (fun () -> Pool.free pool b);
    Hyaline.alloc_hook t ~tid:0 b.Blk.hdr;
    Hyaline.retire t ~tid:0 b.Blk.hdr;
    Alcotest.(check int) "pending grows" i (Hyaline.pending t ~tid:0)
  done;
  Hyaline.leave t ~tid:0;
  Hyaline.flush t ~tid:0;
  Alcotest.(check int) "pending drained" 0 (Hyaline.pending t ~tid:0);
  Alcotest.(check int) "pool empty" 0 (Pool.live pool);
  Alcotest.(check int) "slots" 2 (Hyaline.slots t)

(* k = 1: the simplified single-list version of §3.1 must behave
   identically through the same code path. *)
let test_single_list_version () =
  let cfg =
    { Config.default with nthreads = 2; slots = 1; batch_min = 2 }
  in
  let t = Hyaline.create cfg in
  let pool = Pool.create ~local_cache:0 () in
  for _ = 1 to 100 do
    Hyaline.enter t ~tid:0;
    let b = Pool.alloc pool in
    b.Blk.hdr.Hdr.free_hook <- (fun () -> Pool.free pool b);
    Hyaline.alloc_hook t ~tid:0 b.Blk.hdr;
    Hyaline.retire t ~tid:0 b.Blk.hdr;
    Hyaline.leave t ~tid:0
  done;
  Hyaline.flush t ~tid:0;
  Hyaline.flush t ~tid:0;
  let s = Stats.snapshot (Hyaline.stats t) in
  Alcotest.(check int) "all freed" s.Stats.retires s.Stats.frees;
  Alcotest.(check int) "pool empty" 0 (Pool.live pool)

(* ------------------------------------------------------------------ *)
(* Randomized accounting property: any legal bracket/retire/trim
   script ends — after leave+flush — with every retired block freed
   exactly once (the Hdr lifecycle would catch double frees). *)

type script_op = Enter | Leave | Retire | Trim | Read

let op_gen : (int * script_op) QCheck.Gen.t =
  QCheck.Gen.(
    pair (int_range 0 2)
      (frequency
         [ (2, return Enter); (2, return Leave); (4, return Retire);
           (1, return Trim); (2, return Read) ]))

let script_arb =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "<script of %d ops>" (List.length l))
    QCheck.Gen.(list_size (int_range 0 200) op_gen)

let prop_script (module S : Tracker.S) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: random scripts reclaim fully" S.name)
    ~count:60 script_arb
    (fun script ->
      let cfg =
        {
          Config.default with
          nthreads = 3;
          slots = 2;
          batch_min = 3;
          check_uaf = true;
        }
      in
      let t = S.create cfg in
      let pool = Pool.create ~local_cache:0 () in
      let active = Array.make 3 false in
      let link = Atomic.make None in
      List.iter
        (fun (tid, op) ->
          match op with
          | Enter when not active.(tid) ->
              S.enter t ~tid;
              active.(tid) <- true
          | Leave when active.(tid) ->
              S.leave t ~tid;
              active.(tid) <- false
          | Retire when active.(tid) ->
              let b = Pool.alloc pool in
              b.Blk.hdr.Hdr.free_hook <- (fun () -> Pool.free pool b);
              S.alloc_hook t ~tid b.Blk.hdr;
              let old = Atomic.exchange link (Some b) in
              (match old with
              | Some o -> S.retire t ~tid o.Blk.hdr
              | None -> ())
          | Trim when active.(tid) -> S.trim t ~tid
          | Read when active.(tid) ->
              ignore
                (S.read t ~tid ~idx:0 link (function
                  | Some b -> proj b
                  | None -> Hdr.nil))
          | _ -> ())
        script;
      (* Quiesce. *)
      for tid = 0 to 2 do
        if active.(tid) then S.leave t ~tid
      done;
      (match Atomic.exchange link None with
      | Some last ->
          S.enter t ~tid:0;
          S.retire t ~tid:0 last.Blk.hdr;
          S.leave t ~tid:0
      | None -> ());
      for tid = 0 to 2 do
        S.flush t ~tid
      done;
      let s = Stats.snapshot (S.stats t) in
      s.Stats.retires = s.Stats.frees && Pool.live pool = 0)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "hyaline.adjs",
      [
        Alcotest.test_case "constants" `Quick test_adjs_values;
        Alcotest.test_case "log2" `Quick test_adjs_log2;
        Alcotest.test_case "next_pow2" `Quick test_next_pow2;
        qcheck prop_adjs_wraps;
        qcheck prop_adjs_partial_nonzero;
      ] );
    ( "hyaline.directory",
      [
        Alcotest.test_case "basic" `Quick test_directory_basic;
        Alcotest.test_case "growth" `Quick test_directory_growth;
        Alcotest.test_case "unpublished get" `Quick test_directory_unpublished;
        Alcotest.test_case "ensure idempotent" `Quick
          test_directory_ensure_idempotent;
        Alcotest.test_case "concurrent growth" `Slow
          test_directory_concurrent_growth;
      ] );
    ( "hyaline.llsc",
      [
        Alcotest.test_case "granule ll/sc" `Quick test_granule_ll_sc;
        Alcotest.test_case "sc fails on interference" `Quick
          test_granule_sc_fails_on_interference;
        Alcotest.test_case "spurious injection" `Quick
          test_granule_spurious_injection;
        Alcotest.test_case "Fig.7 head ops" `Quick test_llsc_head_ops;
        Alcotest.test_case "dwFAA rides spurious failures" `Quick
          test_llsc_faa_with_spurious;
      ] );
    ( "hyaline.packed-head",
      [
        Alcotest.test_case "pack/unpack boundary roundtrip" `Quick
          test_packed_roundtrip;
        Alcotest.test_case "head ops" `Quick test_packed_head_ops;
        Alcotest.test_case "Hyaline(packed) bracket allocation-free" `Quick
          (test_packed_bracket_zero_alloc (module Hyaline.Packed));
        Alcotest.test_case "Hyaline-1(packed) bracket allocation-free" `Quick
          (test_packed_bracket_zero_alloc (module Hyaline1.Packed));
        Alcotest.test_case "Crystalline(packed) bracket allocation-free" `Quick
          (test_packed_bracket_zero_alloc (module Crystalline.Packed));
        Alcotest.test_case "Hyaline-S(packed) bracket allocation-free" `Quick
          (test_packed_bracket_zero_alloc (module Hyaline_s.Packed));
        Alcotest.test_case "Hyaline-1S(packed) bracket allocation-free" `Quick
          (test_packed_bracket_zero_alloc (module Hyaline1s.Packed));
        Alcotest.test_case "insert_batch rejects tombstone decode" `Quick
          test_insert_batch_tombstone_retry;
        Alcotest.test_case "hyaline-1 retire rejects tombstone decode" `Quick
          test_hyaline1_retire_tombstone_retry;
        Alcotest.test_case "crystalline retire rejects tombstone decode" `Quick
          test_crystalline_retire_tombstone_retry;
      ] );
    ( "hyaline.batch",
      [
        Alcotest.test_case "seal structure" `Quick test_batch_seal_structure;
        Alcotest.test_case "min birth" `Quick test_batch_min_birth;
        Alcotest.test_case "empty seal rejected" `Quick
          test_batch_seal_empty_rejected;
      ] );
    ( "hyaline.figure2a",
      [
        Alcotest.test_case "paper scenario replay" `Quick test_figure_2a;
        Alcotest.test_case "empty-slot credits" `Quick test_empty_slot_credits;
      ] );
    scheme_suite "hyaline" (module Hyaline) ~expect:hyaline_expect;
    scheme_suite "hyaline.llsc-backend" (module Hyaline.Llsc)
      ~expect:hyaline_expect;
    scheme_suite "hyaline-1" (module Hyaline1) ~expect:hyaline_expect;
    scheme_suite "hyaline-s" (module Hyaline_s) ~expect:hyaline_expect;
    scheme_suite "hyaline-s.llsc-backend" (module Hyaline_s.Llsc)
      ~expect:hyaline_expect;
    scheme_suite "hyaline-1s" (module Hyaline1s) ~expect:hyaline_expect;
    scheme_suite "hyaline.packed-backend" (module Hyaline.Packed)
      ~expect:hyaline_expect;
    scheme_suite "hyaline-s.packed-backend" (module Hyaline_s.Packed)
      ~expect:hyaline_expect;
    scheme_suite "hyaline-1.packed-backend" (module Hyaline1.Packed)
      ~expect:hyaline_expect;
    scheme_suite "hyaline-1s.packed-backend" (module Hyaline1s.Packed)
      ~expect:hyaline_expect;
    scheme_suite "crystalline" (module Crystalline) ~expect:hyaline_expect;
    scheme_suite "crystalline.packed-backend" (module Crystalline.Packed)
      ~expect:hyaline_expect;
    ("hyaline.robustness", robustness_cases hyaline_schemes);
    ( "hyaline.adaptive",
      [
        Alcotest.test_case "slot space grows" `Slow test_adaptive_grows;
        Alcotest.test_case "capped k stays" `Slow test_capped_stays;
        Alcotest.test_case "adaptive bounds garbage" `Slow
          test_adaptive_bounds_garbage;
      ] );
    ( "hyaline.misc",
      [
        Alcotest.test_case "pending/flush/slots" `Quick test_pending_and_flush;
        Alcotest.test_case "k=1 single-list version" `Quick
          test_single_list_version;
      ] );
    ( "hyaline.scripts",
      [
        qcheck (prop_script (module Hyaline));
        qcheck (prop_script (module Hyaline.Llsc));
        qcheck (prop_script (module Hyaline1));
        qcheck (prop_script (module Hyaline_s));
        qcheck (prop_script (module Hyaline1s));
        qcheck (prop_script (module Hyaline.Packed));
        qcheck (prop_script (module Hyaline_s.Packed));
        qcheck (prop_script (module Hyaline1.Packed));
        qcheck (prop_script (module Hyaline1s.Packed));
        qcheck (prop_script (module Crystalline));
        qcheck (prop_script (module Crystalline.Packed));
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Hyaline-S internals: era skipping and Ack accounting. *)

let test_s_stale_era_batch_frees_immediately () =
  (* A reader that never dereferences keeps its slot's access era at 0;
     batches of later-born blocks skip the slot entirely and free on
     the spot even though the reader never leaves. *)
  let cfg =
    { Config.default with nthreads = 2; slots = 2; batch_min = 2; epoch_freq = 1 }
  in
  let t = Hyaline_s.create cfg in
  let pool = Pool.create ~local_cache:0 () in
  Hyaline_s.enter t ~tid:0;
  (* no read: slot 0's access era stays 0 *)
  for _ = 1 to 50 do
    Hyaline_s.enter t ~tid:1;
    let b = Pool.alloc pool in
    b.Blk.hdr.Hdr.free_hook <- (fun () -> Pool.free pool b);
    Hyaline_s.alloc_hook t ~tid:1 b.Blk.hdr;
    Hyaline_s.retire t ~tid:1 b.Blk.hdr;
    Hyaline_s.leave t ~tid:1
  done;
  Hyaline_s.flush t ~tid:1;
  let s = Stats.snapshot (Hyaline_s.stats t) in
  Alcotest.(check int)
    "all freed despite the parked bracket" s.Stats.retires s.Stats.frees;
  Hyaline_s.leave t ~tid:0

let test_s_fresh_era_batch_pinned () =
  (* Same shape, but the parked reader has dereferenced at the current
     era: its slot must now hold batches of blocks born at or before
     its access era. *)
  let cfg =
    { Config.default with nthreads = 2; slots = 1; batch_min = 2; epoch_freq = 1000 }
  in
  let t = Hyaline_s.create cfg in
  let pool = Pool.create ~local_cache:0 () in
  let b0 = Pool.alloc pool in
  b0.Blk.hdr.Hdr.free_hook <- (fun () -> Pool.free pool b0);
  Hyaline_s.alloc_hook t ~tid:1 b0.Blk.hdr;
  let link = Atomic.make b0 in
  Hyaline_s.enter t ~tid:0;
  ignore (Hyaline_s.read t ~tid:0 ~idx:0 link proj);
  (* era clock is not advancing (epoch_freq huge), so retired blocks
     share the reader's access era and are pinned. *)
  for _ = 1 to 20 do
    Hyaline_s.enter t ~tid:1;
    let b = Pool.alloc pool in
    b.Blk.hdr.Hdr.free_hook <- (fun () -> Pool.free pool b);
    Hyaline_s.alloc_hook t ~tid:1 b.Blk.hdr;
    Hyaline_s.retire t ~tid:1 b.Blk.hdr;
    Hyaline_s.leave t ~tid:1
  done;
  Hyaline_s.flush t ~tid:1;
  let s = Stats.snapshot (Hyaline_s.stats t) in
  Alcotest.(check bool)
    (Printf.sprintf "pinned while reader parked (unreclaimed %d)"
       (s.Stats.retires - s.Stats.frees))
    true
    (s.Stats.retires - s.Stats.frees > 0);
  (* Releasing the reader lets everything drain. *)
  Hyaline_s.leave t ~tid:0;
  Hyaline_s.flush t ~tid:1;
  Hyaline_s.flush t ~tid:1;
  let s = Stats.snapshot (Hyaline_s.stats t) in
  Alcotest.(check int) "drained after release" s.Stats.retires s.Stats.frees

let test_s_ack_drift_bounded_when_healthy () =
  (* With no stalled threads, Ack telescopes: after quiescence the sum
     of all Ack counters is bounded by the (now zero) thread count. *)
  let cfg =
    { Config.default with nthreads = 3; slots = 2; batch_min = 2; epoch_freq = 2 }
  in
  let t = Hyaline_s.create cfg in
  let pool = Pool.create ~local_cache:0 () in
  let link = Atomic.make None in
  let worker tid =
    for _ = 1 to 500 do
      Hyaline_s.enter t ~tid;
      ignore
        (Hyaline_s.read t ~tid ~idx:0 link (function
          | Some (b : Blk.t) -> b.Blk.hdr
          | None -> Hdr.nil));
      let b = Pool.alloc pool in
      b.Blk.hdr.Hdr.free_hook <- (fun () -> Pool.free pool b);
      Hyaline_s.alloc_hook t ~tid b.Blk.hdr;
      (match Atomic.exchange link (Some b) with
      | Some old -> Hyaline_s.retire t ~tid old.Blk.hdr
      | None -> ());
      Hyaline_s.leave t ~tid
    done
  in
  (* Run the three tids sequentially — determinism is the point here;
     concurrency is covered elsewhere. *)
  worker 0;
  worker 1;
  worker 2;
  (* Acks are not directly exposed; what we can observe is their
     behavioural consequence — no slot avoidance kicked in, and the
     books balance at quiescence. *)
  (match Atomic.exchange link None with
  | Some last ->
      Hyaline_s.enter t ~tid:0;
      Hyaline_s.retire t ~tid:0 last.Blk.hdr;
      Hyaline_s.leave t ~tid:0
  | None -> ());
  for tid = 0 to 2 do
    Hyaline_s.flush t ~tid
  done;
  let s = Stats.snapshot (Hyaline_s.stats t) in
  Alcotest.(check int) "books balance" s.Stats.retires s.Stats.frees;
  Alcotest.(check int) "slots never grew" 2 (Hyaline_s.slots t)

let hyaline_s_internals =
  ( "hyaline-s.internals",
    [
      Alcotest.test_case "stale-era slots are skipped" `Quick
        test_s_stale_era_batch_frees_immediately;
      Alcotest.test_case "fresh-era slots pin batches" `Quick
        test_s_fresh_era_batch_pinned;
      Alcotest.test_case "healthy Acks never exile" `Quick
        test_s_ack_drift_bounded_when_healthy;
    ] )

let suites = suites @ [ hyaline_s_internals ]

(* ------------------------------------------------------------------ *)
(* End-to-end weak-CAS tolerance: a full data-structure stress over
   the LL/SC backend with heavy spurious SC failure injection (every
   third SC fails).  Exercises every retry path of §4.4 at once. *)

let test_llsc_spurious_end_to_end () =
  Llsc_head.spurious_every := 3;
  Fun.protect ~finally:(fun () -> Llsc_head.spurious_every := 0)
  @@ fun () ->
  let module M = Dstruct.Hash_map.Make (Hyaline.Llsc) in
  let cfg =
    { Config.default with nthreads = 3; slots = 4; batch_min = 8; check_uaf = true }
  in
  let m = M.create ~cfg () in
  let worker tid () =
    let rng = Prims.Rng.create ~seed:(tid * 31) in
    for _ = 1 to 2_000 do
      let k = Prims.Rng.below rng 256 in
      M.enter m ~tid;
      (match Prims.Rng.below rng 3 with
      | 0 -> ignore (M.insert m ~tid k k)
      | 1 -> ignore (M.remove m ~tid k)
      | _ -> ignore (M.get m ~tid k));
      M.leave m ~tid
    done
  in
  let ds = List.init 3 (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join ds;
  M.check m;
  for tid = 0 to 2 do
    M.flush m ~tid;
    M.flush m ~tid
  done;
  let s = Stats.snapshot (M.stats m) in
  Alcotest.(check int) "reclamation complete under spurious SC failures"
    s.Stats.retires s.Stats.frees

let llsc_spurious_suite =
  ( "hyaline.llsc-spurious",
    [
      Alcotest.test_case "hashmap stress, SC fails 1/3" `Slow
        test_llsc_spurious_end_to_end;
    ] )

let suites = suites @ [ llsc_spurious_suite ]
