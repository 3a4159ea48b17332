(* Shared machinery for scheme-generic tracker tests: a pool-backed
   reclaimable block, a test battery functor run against every SMR
   scheme (baselines and all Hyaline variants), and the robustness
   stalled-reader scenario every registry scheme is judged on. *)

open Smr

module Blk = struct
  type t = { hdr : Hdr.t; index : int; mutable payload : int }

  let create ~index = { hdr = Hdr.create (); index; payload = 0 }
  let index b = b.index
  let on_alloc b = Hdr.set_live b.hdr
  let on_free _ = ()
end

module Pool = Mpool.Make (Blk)

type expectations = {
  reclaims : bool; (* frees blocks at quiescence (false for Leaky) *)
  protects : bool; (* a protected block survives a scan (false for Unsafe) *)
}

let proj (b : Blk.t) = b.Blk.hdr

module MakeBattery (S : Tracker.S) = struct
  let cfg = { Config.default with nthreads = 4; check_uaf = true }

  let with_tracker f =
    let t = S.create cfg in
    f t

  let alloc_blk t pool ~tid =
    let b = Pool.alloc pool in
    b.Blk.hdr.Hdr.free_hook <- (fun () -> Pool.free pool b);
    S.alloc_hook t ~tid b.Blk.hdr;
    b

  let churn t pool ~tid n =
    for _ = 1 to n do
      S.enter t ~tid;
      let b = alloc_blk t pool ~tid in
      S.retire t ~tid b.Blk.hdr;
      S.leave t ~tid
    done

  (* Quiesce: all threads out; drive every tid's buffered work.  Some
     schemes need an active bracket for flush-time padding retires to
     drain, so flush twice. *)
  let quiesce t =
    for tid = 0 to cfg.nthreads - 1 do
      S.flush t ~tid
    done;
    for tid = 0 to cfg.nthreads - 1 do
      S.flush t ~tid
    done

  let test_retire_quiesce_frees () =
    with_tracker @@ fun t ->
    let pool = Pool.create ~local_cache:0 () in
    S.enter t ~tid:0;
    let b = alloc_blk t pool ~tid:0 in
    S.retire t ~tid:0 b.Blk.hdr;
    S.leave t ~tid:0;
    quiesce t;
    let s = Stats.snapshot (S.stats t) in
    Alcotest.(check bool) "retired >= 1" true (s.Stats.retires >= 1);
    if S.name = "Leaky" then
      Alcotest.(check int) "leaky never frees" 0 s.Stats.frees
    else begin
      (* Padding dummies may inflate both counters equally; the real
         invariants are full reclamation and pool emptiness. *)
      Alcotest.(check int) "freed = retired at quiescence" s.Stats.retires
        s.Stats.frees;
      Alcotest.(check int) "block back in pool" 0 (Pool.live pool)
    end

  let test_many_retires_all_freed () =
    if S.name = "Leaky" then ()
    else
      with_tracker @@ fun t ->
      let pool = Pool.create ~local_cache:0 () in
      churn t pool ~tid:0 500;
      quiesce t;
      let s = Stats.snapshot (S.stats t) in
      Alcotest.(check bool) "all data blocks retired" true
        (s.Stats.retires >= 500);
      Alcotest.(check int) "all freed" s.Stats.retires s.Stats.frees;
      Alcotest.(check int) "pool empty" 0 (Pool.live pool)

  let test_protection ~expect () =
    with_tracker @@ fun t ->
    let pool = Pool.create ~local_cache:0 () in
    S.enter t ~tid:0;
    let b0 = alloc_blk t pool ~tid:0 in
    let link = Atomic.make b0 in
    (* Reader *)
    S.enter t ~tid:1;
    let seen = S.read t ~tid:1 ~idx:0 link proj in
    Alcotest.(check bool) "reader sees b0" true (seen == b0);
    (* Writer swaps and retires the old block, then drives scans. *)
    let b1 = alloc_blk t pool ~tid:0 in
    Atomic.set link b1;
    S.retire t ~tid:0 b0.Blk.hdr;
    S.leave t ~tid:0;
    S.flush t ~tid:0;
    if expect.protects then begin
      Alcotest.(check bool)
        "protected block not freed" false
        (Hdr.is_freed b0.Blk.hdr);
      S.leave t ~tid:1;
      S.flush t ~tid:0;
      if expect.reclaims then
        Alcotest.(check bool)
          "freed after release" true
          (Hdr.is_freed b0.Blk.hdr)
    end
    else begin
      S.leave t ~tid:1;
      S.flush t ~tid:0
    end

  let test_double_retire_raises () =
    with_tracker @@ fun t ->
    let pool = Pool.create ~local_cache:0 () in
    S.enter t ~tid:0;
    let b = alloc_blk t pool ~tid:0 in
    S.retire t ~tid:0 b.Blk.hdr;
    (match S.retire t ~tid:0 b.Blk.hdr with
    | exception Hdr.Lifecycle ("double-retire", _) -> ()
    | () -> Alcotest.fail "double retire not detected");
    S.leave t ~tid:0

  let test_trim_releases () =
    if S.name = "Leaky" then ()
    else
      with_tracker @@ fun t ->
      let pool = Pool.create ~local_cache:0 () in
      S.enter t ~tid:0;
      for _ = 1 to 200 do
        let b = alloc_blk t pool ~tid:0 in
        S.retire t ~tid:0 b.Blk.hdr
      done;
      S.trim t ~tid:0;
      S.flush t ~tid:0;
      let s = Stats.snapshot (S.stats t) in
      Alcotest.(check bool)
        (Printf.sprintf "trim enabled reclamation (freed %d)" s.Stats.frees)
        true (s.Stats.frees > 0);
      S.leave t ~tid:0;
      S.flush t ~tid:0

  let test_concurrent_stress () =
    with_tracker @@ fun t ->
    let pool = Pool.create ~local_cache:16 () in
    let nslots = 32 in
    S.enter t ~tid:0;
    let links =
      Array.init nslots (fun _ -> Atomic.make (alloc_blk t pool ~tid:0))
    in
    S.leave t ~tid:0;
    let iters = 3_000 in
    let worker tid () =
      let rng = Prims.Rng.create ~seed:(tid * 7919) in
      for _ = 1 to iters do
        S.enter t ~tid;
        let i = Prims.Rng.below rng nslots in
        let _ = S.read t ~tid ~idx:0 links.(i) proj in
        let j = Prims.Rng.below rng nslots in
        let _ = S.read t ~tid ~idx:1 links.(j) proj in
        let fresh = alloc_blk t pool ~tid in
        let old = Atomic.exchange links.(Prims.Rng.below rng nslots) fresh in
        S.retire t ~tid old.Blk.hdr;
        S.leave t ~tid
      done
    in
    let domains =
      List.init cfg.nthreads (fun tid -> Domain.spawn (worker tid))
    in
    List.iter Domain.join domains;
    quiesce t;
    let s = Stats.snapshot (S.stats t) in
    Alcotest.(check bool)
      "every replaced block retired" true
      (s.Stats.retires >= cfg.nthreads * iters);
    if S.name <> "Leaky" then begin
      Alcotest.(check int) "all retired blocks freed at quiescence"
        s.Stats.retires s.Stats.frees;
      Alcotest.(check int) "pool live = array contents" nslots
        (Pool.live pool)
    end

  let tests ~expect =
    [
      Alcotest.test_case "retire+quiesce frees" `Quick
        test_retire_quiesce_frees;
      Alcotest.test_case "bulk retires all freed" `Quick
        test_many_retires_all_freed;
      Alcotest.test_case "protection honoured" `Quick
        (test_protection ~expect);
      Alcotest.test_case "double retire raises" `Quick
        test_double_retire_raises;
      Alcotest.test_case "trim releases prior retires" `Quick
        test_trim_releases;
      Alcotest.test_case "concurrent stress" `Slow test_concurrent_stress;
    ]
end

(* Stalled-reader scenario: a reader pins its reservation while
   another thread retires fresh blocks; the backlog is sampled after
   [n] and after [2n] retires, for the one stalled-reader judge. *)
module Robustness (S : Tracker.S) = struct
  let cfg = { Config.default with nthreads = 2; check_uaf = true }

  let run ~n =
    let t = S.create cfg in
    let pool = Pool.create ~local_cache:0 () in
    let alloc_blk ~tid =
      let b = Pool.alloc pool in
      b.Blk.hdr.Hdr.free_hook <- (fun () -> Pool.free pool b);
      S.alloc_hook t ~tid b.Blk.hdr;
      b
    in
    S.enter t ~tid:0;
    let pinned = alloc_blk ~tid:0 in
    let link = Atomic.make pinned in
    S.leave t ~tid:0;
    (* tid 1 enters, protects one block, then stalls forever. *)
    S.enter t ~tid:1;
    let _ = S.read t ~tid:1 ~idx:0 link proj in
    let churn () =
      for _ = 1 to n do
        S.enter t ~tid:0;
        let b = alloc_blk ~tid:0 in
        S.retire t ~tid:0 b.Blk.hdr;
        S.leave t ~tid:0
      done;
      S.flush t ~tid:0;
      Stats.unreclaimed (S.stats t)
    in
    let at_n = churn () in
    let at_2n = churn () in
    (at_n, at_2n)
end

(* One case per registry scheme, judged by its module's own [robust]
   flag over 2 x 1000 retires: "bounded under stall" ends under 500,
   "pins under stall" above 1500. *)
let robustness_cases schemes =
  List.map
    (fun (s : Workload.Registry.scheme) ->
      let module R = Robustness ((val s.Workload.Registry.s_mod)) in
      let robust = Workload.Stalled.robust s in
      Alcotest.test_case
        (s.Workload.Registry.s_name
        ^ if robust then " bounded under stall" else " pins under stall")
        `Quick
        (fun () ->
          let at_n, at_2n = R.run ~n:1_000 in
          let row = Workload.Stalled.row s ~at_n ~at_2n in
          match
            Workload.Stalled.judge
              ~slack:(Workload.Stalled.slack R.cfg)
              ~bound:500 ~floor:1_500 row
          with
          | None -> ()
          | Some why -> Alcotest.fail why))
    schemes

(* The registry split by the library a scheme lives in (lib/smr
   baselines, lib/hyaline family), so each suite reports its own and
   every case keeps the id it has had since the lists were written by
   hand.  A scheme added to the registry lands in the Hyaline group
   unless it is named here. *)
let smr_schemes, hyaline_schemes =
  List.partition
    (fun (s : Workload.Registry.scheme) ->
      List.mem s.Workload.Registry.s_name [ "Leaky"; "Epoch"; "HP"; "HE"; "IBR" ])
    Workload.Registry.schemes

let scheme_suite name (module S : Tracker.S) ~expect =
  let module B = MakeBattery (S) in
  (name, B.tests ~expect)
