(* Scheme-generic tests for the SMR framework and the baseline
   trackers (battery machinery lives in Test_support). *)

open Smr
open Test_support

(* ------------------------------------------------------------------ *)
(* The use-after-free detector must fire when a broken scheme frees a
   still-referenced block and a reader dereferences it again. *)

let test_uaf_detector_fires () =
  let cfg = { Config.default with nthreads = 2; check_uaf = true } in
  let t = Unsafe_immediate.create cfg in
  let pool = Pool.create ~local_cache:0 () in
  Unsafe_immediate.enter t ~tid:0;
  let b = Pool.alloc pool in
  b.Blk.hdr.Hdr.free_hook <- (fun () -> Pool.free pool b);
  Unsafe_immediate.alloc_hook t ~tid:0 b.Blk.hdr;
  let link = Atomic.make b in
  (* Bug under test: retiring while [link] still points at the block.
     Unsafe_immediate frees instantly; the next tracked read must
     trip the lifecycle check. *)
  Unsafe_immediate.retire t ~tid:0 b.Blk.hdr;
  (match Unsafe_immediate.read t ~tid:1 ~idx:0 link proj with
  | exception Hdr.Lifecycle _ -> ()
  | _ -> Alcotest.fail "use-after-free went undetected");
  Unsafe_immediate.leave t ~tid:0

(* ------------------------------------------------------------------ *)
(* Hdr unit tests *)

let test_hdr_lifecycle () =
  let h = Hdr.create () in
  Hdr.set_retired h;
  Hdr.set_freed h;
  Alcotest.(check bool) "freed" true (Hdr.is_freed h);
  (match Hdr.set_freed h with
  | exception Hdr.Lifecycle ("double-free", _) -> ()
  | () -> Alcotest.fail "double free not detected");
  Hdr.set_live h;
  Alcotest.(check bool) "revived" false (Hdr.is_freed h)

let test_hdr_nil () =
  Alcotest.(check bool) "nil is nil" true (Hdr.is_nil Hdr.nil);
  Alcotest.(check bool) "fresh not nil" false (Hdr.is_nil (Hdr.create ()));
  Hdr.check_not_freed "test" Hdr.nil

let test_hdr_uids_unique () =
  let hs = List.init 64 (fun _ -> Hdr.create ()) in
  let uids = List.map (fun h -> h.Hdr.uid) hs in
  let sorted = List.sort_uniq compare uids in
  Alcotest.(check int) "unique uids" 64 (List.length sorted)

let test_hdr_set_live_resets () =
  let h = Hdr.create () in
  let other = Hdr.create () in
  h.Hdr.next <- other;
  h.Hdr.batch_link <- other;
  h.Hdr.ref_node <- other;
  Atomic.set h.Hdr.nref 42;
  h.Hdr.birth <- 7;
  h.Hdr.retire_era <- 9;
  Hdr.set_live h;
  Alcotest.(check bool) "next reset" true (Hdr.is_nil h.Hdr.next);
  Alcotest.(check bool) "batch_link reset" true (Hdr.is_nil h.Hdr.batch_link);
  Alcotest.(check bool) "ref_node reset" true (Hdr.is_nil h.Hdr.ref_node);
  Alcotest.(check int) "nref reset" 0 (Atomic.get h.Hdr.nref);
  Alcotest.(check int) "birth reset" 0 h.Hdr.birth;
  Alcotest.(check int) "retire_era reset" 0 h.Hdr.retire_era

(* ------------------------------------------------------------------ *)
(* Uid registry: the decode side of the packed head backend.  Every
   header is registered at creation under its uid; [of_uid] must
   return that exact header, reject out-of-range indices, and — the
   racy case — wait out a concurrent registration whose uid has been
   reserved but whose cell store has not landed yet. *)

let test_hdr_of_uid_roundtrip () =
  let hs = List.init 100 (fun _ -> Hdr.create ()) in
  List.iter
    (fun h ->
      Alcotest.(check bool)
        "of_uid returns the registered header" true
        (Hdr.of_uid h.Hdr.uid == h))
    hs

let test_hdr_of_uid_out_of_range () =
  let h = Hdr.create () in
  ignore h;
  Alcotest.check_raises "negative"
    (Invalid_argument "Hdr.of_uid: uid out of range") (fun () ->
      ignore (Hdr.of_uid (-1)));
  Alcotest.check_raises "past frontier"
    (Invalid_argument "Hdr.of_uid: uid out of range") (fun () ->
      ignore (Hdr.of_uid max_int))

let test_hdr_of_uid_vs_create_frontier () =
  (* [create] reserves the uid (fetch-and-add) strictly before the
     registry cell is written, so a reader chasing the frontier can
     pass the range check and hit a cell still holding the nil
     placeholder.  [of_uid] must wait on that cell, never return nil
     or a wrong header.  Tolerated failure: the range check itself. *)
  let stop = Atomic.make false in
  let bad = Atomic.make None in
  let base = (Hdr.create ()).Hdr.uid + 1 in
  let producers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              ignore (Hdr.create ())
            done))
  in
  let consumer =
    Domain.spawn (fun () ->
        let i = ref base in
        (try
           while not (Atomic.get stop) do
             match Hdr.of_uid !i with
             | h ->
                 if h.Hdr.uid <> !i then begin
                   Atomic.set bad
                     (Some
                        (Printf.sprintf "of_uid %d returned header %d" !i
                           h.Hdr.uid));
                   Atomic.set stop true
                 end
                 else if Hdr.is_nil h then begin
                   Atomic.set bad (Some "of_uid returned nil");
                   Atomic.set stop true
                 end
                 else incr i
             | exception Invalid_argument msg
               when msg = "Hdr.of_uid: uid out of range" ->
                 Domain.cpu_relax ()
           done
         with e ->
           Atomic.set bad (Some (Printexc.to_string e));
           Atomic.set stop true);
        !i - base)
  in
  Unix.sleepf 0.3;
  Atomic.set stop true;
  let chased = Domain.join consumer in
  List.iter Domain.join producers;
  (match Atomic.get bad with
  | Some msg -> Alcotest.fail ("registry frontier race: " ^ msg)
  | None -> ());
  Alcotest.(check bool) "consumer chased a non-empty frontier" true
    (chased > 0)

let test_hdr_registry_tombstone_and_republish () =
  (* [set_freed] swaps the registry cell to a dead sentinel — a freed
     uid is only ever decoded from a stale head-word snapshot, and
     because the packed CAS is value-based the decoder must detect the
     sentinel ([is_tombstone]) and retry rather than CAS (the word can
     ABA-revisit its old bits); [set_live] republishes on recycling. *)
  let h = Hdr.create () in
  let u = h.Hdr.uid in
  Alcotest.(check bool) "live header is not the tombstone" false
    (Hdr.is_tombstone (Hdr.of_uid u));
  Hdr.set_retired h;
  Hdr.set_freed h;
  let s = Hdr.of_uid u in
  Alcotest.(check bool) "freed uid no longer decodes to the header" true
    (s != h);
  Alcotest.(check bool) "freed uid decodes to a freed sentinel" true
    (Hdr.is_freed s);
  Alcotest.(check bool) "freed uid decodes to the tombstone" true
    (Hdr.is_tombstone s);
  Alcotest.(check bool) "nil is not the tombstone" false
    (Hdr.is_tombstone Hdr.nil);
  Hdr.set_live h;
  Alcotest.(check bool) "recycled uid decodes to the header again" true
    (Hdr.of_uid u == h);
  Alcotest.(check bool) "recycled uid is not the tombstone" false
    (Hdr.is_tombstone (Hdr.of_uid u))

(* Allocate-and-free in its own function so no stack slot keeps the
   header reachable after return. *)
let[@inline never] weak_freed_header () =
  let w = Weak.create 1 in
  let h = Hdr.create () in
  Weak.set w 0 (Some h);
  Hdr.set_retired h;
  Hdr.set_freed h;
  w

let test_hdr_registry_releases_freed () =
  (* The regression behind the rule: with the registry holding freed
     headers strongly, every header — and through its free hook, its
     whole pool — was immortal, so anything that created trackers and
     pools in a loop (the schedule checker explores tens of thousands
     of them per test) grew without bound. *)
  let w = weak_freed_header () in
  Gc.full_major ();
  Alcotest.(check bool) "freed header is collectable" true
    (Weak.get w 0 = None)

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_validate () =
  Config.validate Config.default;
  Config.validate (Config.paper ~nthreads:72);
  let bad = { Config.default with slots = 3 } in
  (match Config.validate bad with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "non-power-of-two slots accepted");
  let bad = { Config.default with nthreads = 0 } in
  match Config.validate bad with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "zero threads accepted"

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "smr.hdr",
      [
        Alcotest.test_case "lifecycle" `Quick test_hdr_lifecycle;
        Alcotest.test_case "nil sentinel" `Quick test_hdr_nil;
        Alcotest.test_case "uids unique" `Quick test_hdr_uids_unique;
        Alcotest.test_case "set_live resets fields" `Quick
          test_hdr_set_live_resets;
        Alcotest.test_case "uid registry roundtrip" `Quick
          test_hdr_of_uid_roundtrip;
        Alcotest.test_case "uid registry range check" `Quick
          test_hdr_of_uid_out_of_range;
        Alcotest.test_case "uid registry vs create frontier" `Slow
          test_hdr_of_uid_vs_create_frontier;
        Alcotest.test_case "uid registry tombstone + republish" `Quick
          test_hdr_registry_tombstone_and_republish;
        Alcotest.test_case "uid registry releases freed headers" `Quick
          test_hdr_registry_releases_freed;
        Alcotest.test_case "config validation" `Quick test_config_validate;
      ] );
    scheme_suite "smr.leaky" (module Leaky)
      ~expect:{ reclaims = false; protects = true };
    scheme_suite "smr.ebr" (module Ebr)
      ~expect:{ reclaims = true; protects = true };
    scheme_suite "smr.ibr" (module Ibr)
      ~expect:{ reclaims = true; protects = true };
    scheme_suite "smr.he" (module He)
      ~expect:{ reclaims = true; protects = true };
    scheme_suite "smr.hp" (module Hp)
      ~expect:{ reclaims = true; protects = true };
    ( "smr.robustness",
      robustness_cases smr_schemes
      @ [
          Alcotest.test_case "UAF detector fires" `Quick
            test_uaf_detector_fires;
        ] );
  ]
