(* Data-structure tests: sequential model checking against Stdlib.Map,
   quiescent-reclamation accounting, disjoint-range concurrent
   correctness, and mixed concurrent stress with the UAF detector
   armed — across the (structure x scheme) matrix of the paper's
   evaluation. *)

open Smr

module IntMap = Map.Make (Int)

let cfg_base =
  { Config.default with nthreads = 4; slots = 4; batch_min = 8; check_uaf = true }

(* --- sequential model ------------------------------------------------ *)

let model_test (module M : Dstruct.Map_intf.S) ~ops ~seed () =
  let m = M.create ~cfg:cfg_base () in
  let rng = Prims.Rng.create ~seed in
  let model = ref IntMap.empty in
  let key_range = 200 in
  for _ = 1 to ops do
    let k = Prims.Rng.below rng key_range in
    let v = Prims.Rng.next rng in
    M.enter m ~tid:0;
    (match Prims.Rng.below rng 4 with
    | 0 ->
        let expected = not (IntMap.mem k !model) in
        let got = M.insert m ~tid:0 k v in
        if got then model := IntMap.add k v !model;
        Alcotest.(check bool) "insert agrees" expected got
    | 1 ->
        let expected = IntMap.mem k !model in
        let got = M.remove m ~tid:0 k in
        if got then model := IntMap.remove k !model;
        Alcotest.(check bool) "remove agrees" expected got
    | 2 ->
        let expected = IntMap.find_opt k !model in
        let got = M.get m ~tid:0 k in
        Alcotest.(check (option int)) "get agrees" expected got
    | _ ->
        let expected = not (IntMap.mem k !model) in
        let got = M.put m ~tid:0 k v in
        model := IntMap.add k v !model;
        Alcotest.(check bool) "put agrees" expected got);
    M.leave m ~tid:0
  done;
  M.check m;
  let expected = IntMap.bindings !model in
  Alcotest.(check (list (pair int int))) "final contents" expected
    (M.to_sorted_list m);
  Alcotest.(check int) "size" (IntMap.cardinal !model) (M.size m)

(* --- quiescent reclamation ------------------------------------------- *)

let reclaim_test (module M : Dstruct.Map_intf.S) () =
  let m = M.create ~cfg:cfg_base () in
  (* Fill, churn, then empty the structure completely. *)
  for k = 0 to 299 do
    M.enter m ~tid:0;
    ignore (M.insert m ~tid:0 k k);
    M.leave m ~tid:0
  done;
  for k = 0 to 299 do
    M.enter m ~tid:0;
    ignore (M.remove m ~tid:0 k);
    M.leave m ~tid:0
  done;
  for tid = 0 to cfg_base.nthreads - 1 do
    M.flush m ~tid;
    M.flush m ~tid
  done;
  Alcotest.(check int) "structure empty" 0 (M.size m);
  let s = Stats.snapshot (M.stats m) in
  Alcotest.(check bool) "something was retired" true (s.Stats.retires > 0);
  Alcotest.(check int) "all retired blocks freed" s.Stats.retires s.Stats.frees

(* --- disjoint-range concurrency -------------------------------------- *)

let disjoint_test (module M : Dstruct.Map_intf.S) () =
  let m = M.create ~cfg:cfg_base () in
  let per = 250 in
  let worker tid () =
    let base = tid * per in
    for i = 0 to per - 1 do
      M.enter m ~tid;
      assert (M.insert m ~tid (base + i) tid);
      M.leave m ~tid
    done;
    (* Everything this thread inserted is visible to it. *)
    for i = 0 to per - 1 do
      M.enter m ~tid;
      assert (M.get m ~tid (base + i) = Some tid);
      M.leave m ~tid
    done;
    (* Remove the even half. *)
    for i = 0 to per - 1 do
      if i mod 2 = 0 then begin
        M.enter m ~tid;
        assert (M.remove m ~tid (base + i));
        M.leave m ~tid
      end
    done
  in
  let ds = List.init cfg_base.nthreads (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join ds;
  M.check m;
  (* Exactly the odd keys of every range remain. *)
  let expected =
    List.concat_map
      (fun tid ->
        List.filter_map
          (fun i -> if i mod 2 = 1 then Some ((tid * per) + i, tid) else None)
          (List.init per Fun.id))
      (List.init cfg_base.nthreads Fun.id)
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int))) "surviving bindings" expected
    (M.to_sorted_list m)

(* --- mixed concurrent stress ----------------------------------------- *)

let stress_test (module M : Dstruct.Map_intf.S) ~leaky ~ops () =
  let m = M.create ~cfg:cfg_base () in
  let key_range = 512 in
  let worker tid () =
    let rng = Prims.Rng.create ~seed:(1000 + tid) in
    for _ = 1 to ops do
      let k = Prims.Rng.below rng key_range in
      M.enter m ~tid;
      (match Prims.Rng.below rng 10 with
      | 0 | 1 | 2 | 3 -> ignore (M.insert m ~tid k tid)
      | 4 | 5 | 6 | 7 -> ignore (M.remove m ~tid k)
      | _ -> ignore (M.get m ~tid k));
      M.leave m ~tid
    done
  in
  let ds = List.init cfg_base.nthreads (fun tid -> Domain.spawn (worker tid)) in
  List.iter Domain.join ds;
  M.check m;
  for tid = 0 to cfg_base.nthreads - 1 do
    M.flush m ~tid;
    M.flush m ~tid
  done;
  let s = Stats.snapshot (M.stats m) in
  if not leaky then
    Alcotest.(check int) "all retired blocks freed at quiescence"
      s.Stats.retires s.Stats.frees;
  (* The sorted view is coherent (strictly increasing keys). *)
  let keys = List.map fst (M.to_sorted_list m) in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a < b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "keys strictly sorted" true (sorted keys)

(* --- trim-chained operation mode (Figure 10b's access pattern) ------- *)

let trim_mode_test (module M : Dstruct.Map_intf.S) () =
  let m = M.create ~cfg:cfg_base () in
  (* One bracket around many operations, trim between them. *)
  M.enter m ~tid:0;
  for k = 0 to 199 do
    ignore (M.insert m ~tid:0 k k);
    M.trim m ~tid:0
  done;
  for k = 0 to 199 do
    ignore (M.remove m ~tid:0 k);
    M.trim m ~tid:0
  done;
  M.leave m ~tid:0;
  M.flush m ~tid:0;
  M.flush m ~tid:0;
  Alcotest.(check int) "empty" 0 (M.size m);
  let s = Stats.snapshot (M.stats m) in
  Alcotest.(check int) "reclaimed through trim" s.Stats.retires s.Stats.frees

(* --- matrix ----------------------------------------------------------- *)

type maker = (module Dstruct.Map_intf.MAKER)

let structures : (string * maker * bool (* hp_he_ok *)) list =
  [
    ("list", (module Dstruct.Harris_list.Make), true);
    ("hashmap", (module Dstruct.Hash_map.Make), true);
    ("bonsai", (module Dstruct.Bonsai.Make), false);
    ("nmtree", (module Dstruct.Nm_tree.Make), true);
  ]

let schemes : (string * (module Tracker.S) * bool (* is_hp_like *)) list =
  [
    ("leaky", (module Leaky), false);
    ("ebr", (module Ebr), false);
    ("hp", (module Hp), true);
    ("he", (module He), true);
    ("ibr", (module Ibr), false);
    ("hyaline", (module Hyaline_core.Hyaline), false);
    ("hyaline-llsc", (module Hyaline_core.Hyaline.Llsc), false);
    ("hyaline-1", (module Hyaline_core.Hyaline1), false);
    ("hyaline-s", (module Hyaline_core.Hyaline_s), false);
    ("hyaline-1s", (module Hyaline_core.Hyaline1s), false);
  ]

let suites =
  List.concat_map
    (fun (sname, (module Mk : Dstruct.Map_intf.MAKER), hp_ok) ->
      let cases =
        List.concat_map
          (fun (tname, (module T : Tracker.S), is_hp_like) ->
            if is_hp_like && not hp_ok then []
            else
              let map : (module Dstruct.Map_intf.S) = (module Mk (T)) in
              let leaky = tname = "leaky" in
              [
                Alcotest.test_case
                  (Printf.sprintf "%s: sequential model" tname)
                  `Quick
                  (model_test map ~ops:1_500 ~seed:42);
              ]
              @ (if leaky then []
                 else
                   [
                     Alcotest.test_case
                       (Printf.sprintf "%s: quiescent reclamation" tname)
                       `Quick (reclaim_test map);
                     Alcotest.test_case
                       (Printf.sprintf "%s: trim-chained ops" tname)
                       `Quick (trim_mode_test map);
                   ])
              @ [
                  Alcotest.test_case
                    (Printf.sprintf "%s: disjoint concurrent" tname)
                    `Slow (disjoint_test map);
                  Alcotest.test_case
                    (Printf.sprintf "%s: mixed stress" tname)
                    `Slow
                    (stress_test map ~leaky ~ops:2_000);
                ])
          schemes
      in
      [ ("dstruct." ^ sname, cases) ])
    structures

(* --- whole-operation allocation gates -------------------------------- *)

(* The configuration and scheme perfbench's map-churn runs. *)
module Packed_map = Dstruct.Hash_map.Make (Hyaline_core.Hyaline_s.Packed)
module Packed_list = Dstruct.Harris_list.Make (Hyaline_core.Hyaline_s.Packed)

let paper_cfg = Config.paper ~nthreads:3

(* Minor words per call of [f i], over [n] calls made after [n] warm-up
   calls.  [Gc.minor_words] returns an unboxed float, so the count is
   exact. *)
let words_per ~n f =
  for i = 1 to n do
    f i
  done;
  let before = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. before) /. float n

(* Each map op on tid 0 in a bracket of its own, as map-churn runs
   them.  Top-level, so a measured loop builds no closure per op. *)
module Op (M : Dstruct.Map_intf.S) = struct
  let get m k =
    M.enter m ~tid:0;
    let r = M.get m ~tid:0 k in
    M.leave m ~tid:0;
    ignore (Sys.opaque_identity r)

  let insert m k =
    M.enter m ~tid:0;
    ignore (M.insert m ~tid:0 k k : bool);
    M.leave m ~tid:0

  let remove m k =
    M.enter m ~tid:0;
    ignore (M.remove m ~tid:0 k : bool);
    M.leave m ~tid:0
end

module Map_op = Op (Packed_map)
module List_op = Op (Packed_list)

let test_hashmap_op_words () =
  let m = Packed_map.create ~cfg:paper_cfg () in
  let keys = 1024 in
  for k = 0 to keys - 1 do
    Map_op.insert m k
  done;
  let hit = words_per ~n:10_000 (fun i -> Map_op.get m (i land (keys - 1))) in
  let miss =
    words_per ~n:10_000 (fun i -> Map_op.get m (keys + (i land (keys - 1))))
  in
  let pair =
    words_per ~n:10_000 (fun i ->
        let k = keys + (i land 4095) in
        Map_op.insert m k;
        Map_op.remove m k)
  in
  if Float.abs (hit -. 2.) > 0.01 then
    Alcotest.failf "get hit allocates %.2f words, not its 2-word Some" hit;
  if miss > 0.01 then Alcotest.failf "get miss allocates %.2f words" miss;
  if pair > 24. then
    Alcotest.failf "insert+remove pair allocates %.2f words (bound 24)" pair;
  Packed_map.check m

let test_list_miss_words () =
  let l = Packed_list.create ~cfg:paper_cfg () in
  for k = 0 to 63 do
    List_op.insert l (2 * k)
  done;
  let miss =
    words_per ~n:10_000 (fun i -> List_op.get l ((2 * (i land 63)) + 1))
  in
  if miss > 0.01 then Alcotest.failf "list get miss allocates %.2f words" miss

(* The other pooled structures, on the same packed Hyaline-S: a free
   hook bound once per pooled node, not once per allocation.  The
   trees still allocate in their traversals and Bonsai in its
   rebuilds; each row is held at its measured count. *)
module Packed_nm = Dstruct.Nm_tree.Make (Hyaline_core.Hyaline_s.Packed)
module Packed_bonsai = Dstruct.Bonsai.Make (Hyaline_core.Hyaline_s.Packed)
module Packed_queue = Dstruct.Ms_queue.Make (Hyaline_core.Hyaline_s.Packed)
module Nm_op = Op (Packed_nm)
module Bonsai_op = Op (Packed_bonsai)

let tree_pair_words (type m) (module M : Dstruct.Map_intf.S with type t = m)
    ~insert ~remove =
  let m = M.create ~cfg:paper_cfg () in
  let keys = 1024 in
  for k = 0 to keys - 1 do
    insert m k
  done;
  let pair =
    words_per ~n:10_000 (fun i ->
        let k = keys + (i land 4095) in
        insert m k;
        remove m k)
  in
  M.check m;
  pair

let check_words name ~bound words =
  if words > bound then
    Alcotest.failf "%s allocates %.2f words (bound %.1f)" name words bound

let test_nm_tree_pair_words () =
  check_words "NM-tree insert+remove pair" ~bound:166.
    (tree_pair_words (module Packed_nm) ~insert:Nm_op.insert
       ~remove:Nm_op.remove)

let test_bonsai_pair_words () =
  check_words "Bonsai insert+remove pair" ~bound:276.5
    (tree_pair_words (module Packed_bonsai) ~insert:Bonsai_op.insert
       ~remove:Bonsai_op.remove)

let queue_pair q i =
  Packed_queue.enqueue q ~tid:0 i;
  ignore (Sys.opaque_identity (Packed_queue.dequeue q ~tid:0))

let test_queue_pair_words () =
  let q = Packed_queue.create paper_cfg in
  for i = 0 to 63 do
    Packed_queue.enqueue q ~tid:0 i
  done;
  check_words "Ms_queue enqueue+dequeue pair" ~bound:24.5
    (words_per ~n:10_000 (queue_pair q))

(* --- pool recycling --------------------------------------------------- *)

let gauge (type m) (module M : Dstruct.Map_intf.S with type t = m) (m : m) name
    =
  match List.assoc_opt name (M.gauges m) with
  | Some v -> v
  | None -> Alcotest.failf "no %s gauge" name

(* One domain, 100k insert+remove pairs over map-churn's 16k keys, half
   of them bound; the second 50k are measured.  A cache miss pops one
   magazine, so a pair's allocation does not grow with the number of
   free nodes (the whole-list exchange and splice-back the magazines
   replaced cost 125 words a pair here), and recycling keeps the pool
   from minting nodes beyond the live set and what Hyaline-S's batches
   hold back. *)
let test_pool_churn_recycles () =
  let m = Packed_map.create ~cfg:paper_cfg () in
  let keys = 16384 in
  let rng = Prims.Rng.create ~seed:7 in
  for _ = 1 to keys / 2 do
    Map_op.insert m (Prims.Rng.below rng keys)
  done;
  let words =
    words_per ~n:50_000 (fun _ ->
        Map_op.insert m (Prims.Rng.below rng keys);
        Map_op.remove m (Prims.Rng.below rng keys))
  in
  if words > 24. then
    Alcotest.failf "insert+remove pair allocates %.1f words (bound 24)" words;
  let created = gauge (module Packed_map) m "mpool_created" in
  let live = gauge (module Packed_map) m "mpool_live" in
  if created > live + 1024 then
    Alcotest.failf "pool kept minting: %d nodes created for %d live" created
      live;
  Packed_map.check m

(* Two domains churn while a third holds a bracket open (the stalled
   reader), then the reader leaves and every tid flushes.  Every node
   the churn unlinked must have gone back to the pool, so the nodes the
   pool counts live are exactly the map's bindings.  A free hook that
   was never bound leaks every retired node here. *)
let test_pool_live_after_stall () =
  let m = Packed_map.create ~cfg:paper_cfg () in
  let keys = 4096 in
  for k = 0 to (keys / 2) - 1 do
    Packed_map.enter m ~tid:0;
    ignore (Packed_map.insert m ~tid:0 (2 * k) k);
    Packed_map.leave m ~tid:0
  done;
  let reader = 2 in
  Packed_map.enter m ~tid:reader;
  ignore (Packed_map.get m ~tid:reader 0);
  let worker tid () =
    let rng = Prims.Rng.create ~seed:(31 + tid) in
    for _ = 1 to 20_000 do
      let k = Prims.Rng.below rng keys in
      Packed_map.enter m ~tid;
      if Prims.Rng.below rng 2 = 0 then ignore (Packed_map.insert m ~tid k k)
      else ignore (Packed_map.remove m ~tid k);
      Packed_map.leave m ~tid
    done
  in
  List.iter Domain.join (List.init 2 (fun tid -> Domain.spawn (worker tid)));
  Packed_map.leave m ~tid:reader;
  for tid = 0 to paper_cfg.nthreads - 1 do
    Packed_map.flush m ~tid;
    Packed_map.flush m ~tid
  done;
  let s = Stats.snapshot (Packed_map.stats m) in
  Alcotest.(check int) "all retired blocks freed" s.Stats.retires s.Stats.frees;
  Alcotest.(check int)
    "mpool_live = map size" (Packed_map.size m)
    (gauge (module Packed_map) m "mpool_live");
  Packed_map.check m

(* --- the end sentinel never shadows a key ----------------------------- *)

let edge_keys = [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ]

(* Every map op on each edge key in turn; [check] also walks the
   order, which must admit [min_int] as a first key. *)
let sentinel_edge_test (module M : Dstruct.Map_intf.S) () =
  let m = M.create ~cfg:cfg_base () in
  let op f =
    M.enter m ~tid:0;
    let r = f () in
    M.leave m ~tid:0;
    r
  in
  let get k = op (fun () -> M.get m ~tid:0 k) in
  let opt = Alcotest.(option int) and bool = Alcotest.bool in
  List.iter
    (fun k ->
      let name s = Printf.sprintf "%s %d" s k in
      Alcotest.check opt (name "get absent") None (get k);
      Alcotest.check bool (name "insert") true
        (op (fun () -> M.insert m ~tid:0 k 1));
      Alcotest.check bool (name "insert again") false
        (op (fun () -> M.insert m ~tid:0 k 2));
      Alcotest.check opt (name "get") (Some 1) (get k);
      Alcotest.check bool (name "put present") false
        (op (fun () -> M.put m ~tid:0 k 3));
      Alcotest.check opt (name "get put") (Some 3) (get k);
      Alcotest.check bool (name "remove") true
        (op (fun () -> M.remove m ~tid:0 k));
      Alcotest.check bool (name "remove again") false
        (op (fun () -> M.remove m ~tid:0 k));
      Alcotest.check opt (name "get removed") None (get k);
      Alcotest.check bool (name "put absent") true
        (op (fun () -> M.put m ~tid:0 k k));
      M.check m)
    edge_keys;
  Alcotest.(check (list (pair int int))) "every edge key bound to itself"
    (List.map (fun k -> (k, k)) edge_keys)
    (M.to_sorted_list m)

(* Lincheck-style churn over the edge keys only: three domains, short
   histories, checked for linearizability.  The sentinel's header is
   [Hdr.nil]: a retire or free of the sentinel would leave it not
   live. *)
let sentinel_churn_test (module M : Dstruct.Map_intf.S) () =
  let cfg = { cfg_base with nthreads = 3 } in
  let keys = Array.of_list edge_keys in
  for seed = 1 to 8 do
    let m = M.create ~cfg () in
    let h = Lincheck.History.create () in
    let worker tid () =
      let rng = Prims.Rng.create ~seed:(seed + (7919 * tid)) in
      for _ = 1 to 20 do
        let k = keys.(Prims.Rng.below rng (Array.length keys)) in
        let v = Prims.Rng.below rng 1000 in
        let record op f = ignore (Lincheck.History.record h ~tid op f) in
        M.enter m ~tid;
        (match Prims.Rng.below rng 4 with
        | 0 ->
            record (Insert (k, v)) (fun () -> Bool (M.insert m ~tid k v))
        | 1 -> record (Remove k) (fun () -> Bool (M.remove m ~tid k))
        | 2 -> record (Get k) (fun () -> Opt (M.get m ~tid k))
        | _ -> record (Put (k, v)) (fun () -> Bool (M.put m ~tid k v)));
        M.leave m ~tid
      done
    in
    List.iter Domain.join (List.init 3 (fun tid -> Domain.spawn (worker tid)));
    Lincheck.History.check_exn (Lincheck.History.events h);
    M.check m;
    for tid = 0 to 2 do
      M.flush m ~tid;
      M.flush m ~tid
    done;
    Alcotest.(check bool) "sentinel header never retired" true
      (Hdr.is_live Hdr.nil)
  done

let sentinel_maps : (string * (module Dstruct.Map_intf.S)) list =
  [
    ("hashmap/hyaline-s(packed)", (module Packed_map));
    ("list/hyaline-s(packed)", (module Packed_list));
    ("hashmap/hp", (module Dstruct.Hash_map.Make (Hp)));
    ("list/ebr", (module Dstruct.Harris_list.Make (Ebr)));
  ]

let suites =
  suites
  @ [
      ( "dstruct.alloc",
        [
          Alcotest.test_case "hashmap get/insert/remove words" `Quick
            test_hashmap_op_words;
          Alcotest.test_case "list get miss allocation-free" `Quick
            test_list_miss_words;
          Alcotest.test_case "ms_queue enqueue+dequeue words" `Quick
            test_queue_pair_words;
          Alcotest.test_case "nm-tree insert+remove words" `Quick
            test_nm_tree_pair_words;
          Alcotest.test_case "bonsai insert+remove words" `Quick
            test_bonsai_pair_words;
        ] );
      ( "dstruct.pool",
        [
          Alcotest.test_case "one-domain churn recycles" `Quick
            test_pool_churn_recycles;
          Alcotest.test_case "live = size after a stall" `Quick
            test_pool_live_after_stall;
        ] );
      ( "dstruct.sentinel",
        List.concat_map
          (fun (name, map) ->
            [
              Alcotest.test_case ("keys: " ^ name) `Quick
                (sentinel_edge_test map);
              Alcotest.test_case ("churn: " ^ name) `Quick
                (sentinel_churn_test map);
            ])
          sentinel_maps );
    ]
