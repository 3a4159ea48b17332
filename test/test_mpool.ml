(* Tests for the explicit memory pool substrate. *)

let qcheck = QCheck_alcotest.to_alcotest

(* A minimal poolable node that records its own lifecycle so tests can
   observe what the pool did to it. *)
module Node = struct
  type t = {
    index : int;
    mutable live : bool;
    mutable alloc_count : int;
    mutable free_count : int;
  }

  let create ~index = { index; live = false; alloc_count = 0; free_count = 0 }
  let index n = n.index

  let on_alloc n =
    assert (not n.live);
    n.live <- true;
    n.alloc_count <- n.alloc_count + 1

  let on_free n =
    if not n.live then failwith "double free detected by node hook";
    n.live <- false;
    n.free_count <- n.free_count + 1
end

module Pool = Mpool.Make (Node)

let test_alloc_free_roundtrip () =
  let p = Pool.create ~local_cache:0 () in
  let n = Pool.alloc p in
  Alcotest.(check bool) "live after alloc" true n.Node.live;
  Pool.free p n;
  Alcotest.(check bool) "dead after free" false n.Node.live;
  let s = Pool.stats p in
  Alcotest.(check int) "created" 1 s.Mpool.created;
  Alcotest.(check int) "allocs" 1 s.Mpool.allocs;
  Alcotest.(check int) "frees" 1 s.Mpool.frees

let test_reuse () =
  let p = Pool.create ~local_cache:0 () in
  let n1 = Pool.alloc p in
  Pool.free p n1;
  let n2 = Pool.alloc p in
  Alcotest.(check bool) "freed node is recycled" true (n1 == n2);
  Alcotest.(check int) "only one node ever created" 1 (Pool.stats p).created

let test_distinct_when_live () =
  let p = Pool.create ~local_cache:0 () in
  let n1 = Pool.alloc p in
  let n2 = Pool.alloc p in
  Alcotest.(check bool) "live nodes distinct" true (n1 != n2);
  Alcotest.(check int) "two created" 2 (Pool.stats p).created

let test_indices_dense_and_stable () =
  let p = Pool.create ~local_cache:0 () in
  let nodes = List.init 100 (fun _ -> Pool.alloc p) in
  let indices = List.map Node.index nodes |> List.sort compare in
  Alcotest.(check (list int)) "dense indices" (List.init 100 Fun.id) indices;
  List.iter (Pool.free p) nodes;
  let again = List.init 100 (fun _ -> Pool.alloc p) in
  Alcotest.(check (list int))
    "recycled nodes keep their indices" (List.init 100 Fun.id)
    (List.map Node.index again |> List.sort compare)

let test_local_cache_spills () =
  let p = Pool.create ~local_cache:4 () in
  let nodes = List.init 32 (fun _ -> Pool.alloc p) in
  List.iter (Pool.free p) nodes;
  Alcotest.(check int) "all frees counted" 32 (Pool.stats p).frees;
  (* Everything must be allocatable again without fresh creation. *)
  let again = List.init 32 (fun _ -> Pool.alloc p) in
  Alcotest.(check int) "no new nodes" 32 (Pool.stats p).created;
  ignore again

let test_live_counter () =
  let p = Pool.create ~local_cache:0 () in
  let a = Pool.alloc p in
  let b = Pool.alloc p in
  Alcotest.(check int) "live 2" 2 (Pool.live p);
  Pool.free p a;
  Alcotest.(check int) "live 1" 1 (Pool.live p);
  Pool.free p b;
  Alcotest.(check int) "live 0" 0 (Pool.live p)

let test_concurrent_churn () =
  (* Domains hammer alloc/free; afterwards the books must balance and
     no node may be live. *)
  let p = Pool.create ~local_cache:8 () in
  let iters = 2_000 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let r = Prims.Rng.create ~seed:d in
            let held = ref [] in
            for _ = 1 to iters do
              if Prims.Rng.below r 2 = 0 then held := Pool.alloc p :: !held
              else
                match !held with
                | [] -> held := [ Pool.alloc p ]
                | n :: rest ->
                    Pool.free p n;
                    held := rest
            done;
            List.iter (Pool.free p) !held))
  in
  List.iter Domain.join domains;
  let s = Pool.stats p in
  Alcotest.(check int) "allocs = frees" s.Mpool.allocs s.Mpool.frees;
  Alcotest.(check bool) "created <= allocs" true (s.created <= s.allocs)

let test_magazine_accounting () =
  (* Spilling pushes the whole cache as one magazine: with local_cache
     = 4 the fifth free pushes all five cached nodes in one CAS, a miss
     pops one magazine, and the shared-length gauge (the top
     magazine's running total) is exact at quiescence. *)
  let p = Pool.create ~local_cache:4 () in
  let nodes = List.init 10 (fun _ -> Pool.alloc p) in
  Alcotest.(check int) "nothing shared yet" 0 (Pool.shared_free_length p);
  List.iter (Pool.free p) nodes;
  Alcotest.(check int) "two magazines of five" 10 (Pool.shared_free_length p);
  let again = List.init 10 (fun _ -> Pool.alloc p) in
  Alcotest.(check int) "shared drained" 0 (Pool.shared_free_length p);
  Alcotest.(check int) "no fresh creation" 10 (Pool.stats p).created;
  ignore again

let test_magazine_refill () =
  (* The cache-miss path pops one magazine: one domain manufactures 20
     nodes and spills them all as four magazines of [1 + local_cache],
     then a second domain's single allocation must take one magazine
     (no fresh creation) and leave the other three on the stack.
     Domains run sequentially so the accounting is exact. *)
  let p = Pool.create ~local_cache:4 () in
  Domain.join
    (Domain.spawn (fun () ->
         let nodes = List.init 20 (fun _ -> Pool.alloc p) in
         List.iter (Pool.free p) nodes));
  Alcotest.(check int) "producer spilled everything" 20
    (Pool.shared_free_length p);
  Domain.join
    (Domain.spawn (fun () ->
         ignore (Pool.alloc p);
         Alcotest.(check int)
           "one miss took 1 + local_cache nodes" 15
           (Pool.shared_free_length p);
         (* The next [local_cache] allocations are pure cache hits. *)
         for _ = 1 to 4 do
           ignore (Pool.alloc p)
         done;
         Alcotest.(check int)
           "cache hits leave the shared stack alone" 15
           (Pool.shared_free_length p);
         ignore (Pool.alloc p);
         Alcotest.(check int)
           "next miss pops the next magazine" 10
           (Pool.shared_free_length p)));
  Alcotest.(check int) "no fresh creation on the refill path" 20
    (Pool.stats p).created

let test_refill_under_contention () =
  (* Two domains alternating miss-heavy allocation against a shared
     pile: pops race pops and pushes on the magazine stack; the books
     must balance at quiescence and nothing may be lost or
     duplicated. *)
  let p = Pool.create ~local_cache:2 () in
  Domain.join
    (Domain.spawn (fun () ->
         let nodes = List.init 64 (fun _ -> Pool.alloc p) in
         List.iter (Pool.free p) nodes));
  let worker seed =
    Domain.spawn (fun () ->
        let r = Prims.Rng.create ~seed in
        let held = ref [] in
        for _ = 1 to 2_000 do
          if Prims.Rng.below r 2 = 0 then held := Pool.alloc p :: !held
          else
            match !held with
            | [] -> held := [ Pool.alloc p ]
            | n :: rest ->
                Pool.free p n;
                held := rest
        done;
        List.iter (Pool.free p) !held)
  in
  let d1 = worker 1 and d2 = worker 2 in
  Domain.join d1;
  Domain.join d2;
  let s = Pool.stats p in
  Alcotest.(check int) "allocs = frees" s.Mpool.allocs s.Mpool.frees;
  Alcotest.(check int) "live 0" 0 (Pool.live p)

let test_inject_failures () =
  let p = Pool.create ~local_cache:0 () in
  Pool.inject_failures p ~n:2;
  Alcotest.(check int) "budget armed" 2 (Pool.injected_failures_pending p);
  (match Pool.alloc p with
  | _ -> Alcotest.fail "first alloc should have failed"
  | exception Mpool.Injected_oom -> ());
  (match Pool.alloc p with
  | _ -> Alcotest.fail "second alloc should have failed"
  | exception Mpool.Injected_oom -> ());
  Alcotest.(check int) "budget drained" 0 (Pool.injected_failures_pending p);
  let n = Pool.alloc p in
  Alcotest.(check bool) "third alloc succeeds" true n.Node.live;
  (* Failed allocations must not leak into the books: live stays exact
     and only the successful alloc is counted. *)
  let s = Pool.stats p in
  Alcotest.(check int) "failed allocs not counted" 1 s.Mpool.allocs;
  Alcotest.(check int) "live exact" 1 (Pool.live p);
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument "Mpool.inject_failures: n < 0") (fun () ->
      Pool.inject_failures p ~n:(-1))

(* ------------------------------------------------------------------ *)
(* Node reuse under Leaky vs the Hdr generation check.

   Leaky never frees, so a retired node stays reachable forever; if
   storage is recycled anyway (the unsafe-reclamation adversary), a
   reader still holding the old pointer commits a use-after-free.  The
   checked build must catch exactly that: the shared free funnel marks
   the header freed, and a stale dereference trips [Lifecycle] before
   the pool hands the node out again. *)

module Blk = struct
  type t = { hdr : Smr.Hdr.t; index : int }

  let create ~index = { hdr = Smr.Hdr.create (); index }
  let index b = b.index
  let on_alloc b = Smr.Hdr.set_live b.hdr
  let on_free _ = ()
end

module Bpool = Mpool.Make (Blk)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_leaky_reuse_trips_generation_check () =
  let t = Smr.Leaky.create Smr.Config.default in
  let pool = Bpool.create ~local_cache:0 () in
  Smr.Leaky.enter t ~tid:0;
  let a = Bpool.alloc pool in
  a.Blk.hdr.Smr.Hdr.free_hook <- (fun () -> Bpool.free pool a);
  Smr.Leaky.alloc_hook t ~tid:0 a.Blk.hdr;
  Smr.Leaky.retire t ~tid:0 a.Blk.hdr;
  Smr.Leaky.leave t ~tid:0;
  Alcotest.(check int)
    "leaky never reclaims" 1
    (Smr.Stats.unreclaimed (Smr.Leaky.stats t));
  (* Force the reclamation Leaky refuses to do, through the shared
     funnel every scheme frees with: header freed, storage recycled. *)
  Smr.Tracker.free_block (Smr.Leaky.stats t) ~tid:0 a.Blk.hdr;
  (* A reader still holding the stale pointer dereferences it. *)
  (match Smr.Hdr.check_not_freed "stale deref" a.Blk.hdr with
  | () -> Alcotest.fail "stale dereference after free went undetected"
  | exception Smr.Hdr.Lifecycle (msg, h) ->
      Alcotest.(check bool)
        "violation names the dereference context" true
        (contains msg "stale deref");
      Alcotest.(check bool) "violation carries the header" true
        (h == a.Blk.hdr));
  (* Freeing the same block again is its own violation. *)
  (match Smr.Tracker.free_block (Smr.Leaky.stats t) ~tid:0 a.Blk.hdr with
  | () -> Alcotest.fail "double free went undetected"
  | exception Smr.Hdr.Lifecycle (msg, _) ->
      Alcotest.(check bool) "double free named" true (contains msg "double-free"));
  (* The free hook really recycled the storage: the next allocation is
     the same node, relabelled live — which is why the stale pointer
     above was dangerous and the trip mandatory. *)
  let b = Bpool.alloc pool in
  Alcotest.(check bool) "retired node physically reused" true (a == b);
  Alcotest.(check bool)
    "reused header reads as live again" false
    (Smr.Hdr.is_freed b.Blk.hdr)

let prop_sequential_model =
  (* Random alloc/free sequences against a simple model: the pool's
     live count always equals (allocs - frees) of the model, and every
     alloc returns a node that is not currently held. *)
  QCheck.Test.make ~name:"pool matches alloc/free model" ~count:100
    QCheck.(list bool)
    (fun script ->
      let p = Pool.create ~local_cache:0 () in
      let held = ref [] in
      let model_live = ref 0 in
      List.iter
        (fun is_alloc ->
          if is_alloc then begin
            let n = Pool.alloc p in
            if List.memq n !held then failwith "pool handed out a held node";
            held := n :: !held;
            incr model_live
          end
          else
            match !held with
            | [] -> ()
            | n :: rest ->
                Pool.free p n;
                held := rest;
                decr model_live)
        script;
      Pool.live p = !model_live)

let suites =
  [
    ( "mpool",
      [
        Alcotest.test_case "alloc/free roundtrip" `Quick
          test_alloc_free_roundtrip;
        Alcotest.test_case "freed nodes are reused" `Quick test_reuse;
        Alcotest.test_case "live nodes distinct" `Quick
          test_distinct_when_live;
        Alcotest.test_case "indices dense+stable" `Quick
          test_indices_dense_and_stable;
        Alcotest.test_case "local cache spills" `Quick test_local_cache_spills;
        Alcotest.test_case "live counter" `Quick test_live_counter;
        Alcotest.test_case "concurrent churn" `Slow test_concurrent_churn;
        Alcotest.test_case "magazine accounting" `Quick
          test_magazine_accounting;
        Alcotest.test_case "magazine refill, two domains" `Quick
          test_magazine_refill;
        Alcotest.test_case "refill under contention" `Slow
          test_refill_under_contention;
        Alcotest.test_case "injected alloc failures" `Quick
          test_inject_failures;
        Alcotest.test_case "leaky reuse trips the generation check" `Quick
          test_leaky_reuse_trips_generation_check;
        qcheck prop_sequential_model;
      ] );
  ]
