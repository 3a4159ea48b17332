(* Unit and property tests for the prims library. *)

open Prims

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Backoff *)

let test_backoff_basic () =
  let b = Backoff.create () in
  (* Must terminate and be callable many times. *)
  for _ = 1 to 10 do
    Backoff.once b
  done;
  Backoff.reset b;
  Backoff.once b

let test_backoff_invalid () =
  Alcotest.check_raises "min_wait <= 0"
    (Invalid_argument "Backoff.create: min_wait <= 0") (fun () ->
      ignore (Backoff.create ~min_wait:0 ()));
  Alcotest.check_raises "max < min"
    (Invalid_argument "Backoff.create: max_wait < min_wait") (fun () ->
      ignore (Backoff.create ~min_wait:8 ~max_wait:4 ()))

(* ------------------------------------------------------------------ *)
(* Xatomic *)

let test_cas_max_seq () =
  let a = Atomic.make 5 in
  Alcotest.(check int) "raise" 9 (Xatomic.cas_max a 9);
  Alcotest.(check int) "no regress" 9 (Xatomic.cas_max a 3);
  Alcotest.(check int) "stored" 9 (Atomic.get a)

let test_cas_max_concurrent () =
  let a = Atomic.make 0 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 1000 do
              ignore (Xatomic.cas_max a ((i * 4) + d))
            done))
  in
  List.iter Domain.join domains;
  (* The maximum ever proposed must have won. *)
  Alcotest.(check int) "max wins" 4003 (Atomic.get a)

let test_incr_if_at_least () =
  let a = Atomic.make 10 in
  Alcotest.(check bool) "incr ok" true (Xatomic.incr_if_at_least a 10);
  Alcotest.(check int) "value" 11 (Atomic.get a);
  Alcotest.(check bool) "below floor" false (Xatomic.incr_if_at_least a 100);
  Alcotest.(check int) "unchanged" 11 (Atomic.get a)

let test_update () =
  let a = Atomic.make 7 in
  let old = Xatomic.update a (fun x -> x * 2) in
  Alcotest.(check int) "old" 7 old;
  Alcotest.(check int) "new" 14 (Atomic.get a)

let test_update_concurrent () =
  let a = Atomic.make 0 in
  let per_domain = 5000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              ignore (Xatomic.update a succ)
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "all increments applied" (4 * per_domain) (Atomic.get a)

let test_wrapping_add () =
  (* The Hyaline Adjs identity: k * (2^63/k) = 0 mod 2^63 (OCaml ints
     are 63-bit, so the paper's N is 63 here). *)
  List.iter
    (fun k ->
      let log2 =
        let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
        go 0 k
      in
      let adjs = if k = 1 then 0 else 1 lsl (63 - log2) in
      let acc = ref 0 in
      for _ = 1 to k do
        acc := Xatomic.wrapping_add !acc adjs
      done;
      Alcotest.(check int)
        (Printf.sprintf "k=%d: k * Adjs wraps to zero" k)
        0 !acc)
    [ 1; 2; 8; 128; 1024 ]

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next a = Rng.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next c1 = Rng.next c2 then incr same
  done;
  Alcotest.(check bool) "children differ" true (!same < 4)

let test_rng_below_invalid () =
  let r = Rng.create ~seed:0 in
  Alcotest.check_raises "n <= 0" (Invalid_argument "Rng.below: n <= 0")
    (fun () -> ignore (Rng.below r 0))

let prop_rng_below_range =
  QCheck.Test.make ~name:"Rng.below stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, n) ->
      let r = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.below r n in
        if v < 0 || v >= n then ok := false
      done;
      !ok)

let prop_rng_nonnegative =
  QCheck.Test.make ~name:"Rng.next is non-negative" ~count:200
    QCheck.small_int (fun seed ->
      let r = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        if Rng.next r < 0 then ok := false
      done;
      !ok)

let prop_rng_float_range =
  QCheck.Test.make ~name:"Rng.float in [0,1)" ~count:200 QCheck.small_int
    (fun seed ->
      let r = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let f = Rng.float r in
        if f < 0.0 || f >= 1.0 then ok := false
      done;
      !ok)

let test_rng_distribution () =
  (* Coarse uniformity check: 10 buckets, 10k draws, each bucket
     within 30% of the expectation. *)
  let r = Rng.create ~seed:2024 in
  let buckets = Array.make 10 0 in
  let draws = 10_000 in
  for _ = 1 to draws do
    let i = Rng.below r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d balanced (%d)" i c)
        true
        (c > 700 && c < 1300))
    buckets

(* ------------------------------------------------------------------ *)
(* Parker *)

(* Ping-pong between two domains.  On an oversubscribed core the
   partner is usually descheduled past the spin budget, so many waits
   take the flag/re-check/block path.  A lost wakeup leaves both
   blocked; the watchdog turns that into a failure, not a hang. *)
let test_parker_ping_pong () =
  let rounds = 2_000 in
  let turn = Atomic.make 0 in
  let pa = Parker.create () and pb = Parker.create () in
  let await p n =
    let reached () = Atomic.get turn >= n in
    while not (reached ()) do
      Parker.park p ~ready:reached
    done
  in
  let finished = Atomic.make false in
  let run () =
    let b =
      Domain.spawn (fun () ->
          for i = 1 to rounds do
            await pb ((2 * i) - 1);
            Atomic.set turn (2 * i);
            Parker.wake pa
          done)
    in
    for i = 1 to rounds do
      Atomic.set turn ((2 * i) - 1);
      Parker.wake pb;
      await pa (2 * i)
    done;
    Domain.join b;
    Atomic.set finished true
  in
  ignore (Domain.spawn run);
  let deadline = Unix.gettimeofday () +. 30.0 in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Alcotest.(check bool) "every round woken" true (Atomic.get finished);
  Alcotest.(check int) "final turn" (2 * rounds) (Atomic.get turn)

(* ------------------------------------------------------------------ *)
(* Padded *)

(* Two domains race fetch_and_add, a CAS increment loop and exchange
   on padded atomics; every result must be exact. *)
let test_padded_atomic_concurrent () =
  let n = 100_000 in
  let faa = Padded.atomic 0 and cas = Padded.atomic 0 in
  let xchg = Padded.atomic 0 in
  let rec cas_incr () =
    let v = Atomic.get cas in
    if not (Atomic.compare_and_set cas v (v + 1)) then cas_incr ()
  in
  let worker d () =
    let taken = ref 0 in
    for i = 1 to n do
      ignore (Atomic.fetch_and_add faa 1);
      cas_incr ();
      taken := !taken + Atomic.exchange xchg ((d * n) + i)
    done;
    !taken
  in
  let ds = List.init 2 (fun d -> Domain.spawn (worker d)) in
  let taken = List.fold_left (fun acc d -> acc + Domain.join d) 0 ds in
  Alcotest.(check int) "fetch_and_add" (2 * n) (Atomic.get faa);
  Alcotest.(check int) "compare_and_set" (2 * n) (Atomic.get cas);
  (* Every value put in comes out exactly once: taken by a later
     exchange, or left as the final value. *)
  let put = (2 * n * ((2 * n) + 1)) / 2 in
  Alcotest.(check int) "exchange conserves" put (taken + Atomic.get xchg)

type padded_rec = {
  mutable count : int;
  name : string;
  items : int list;
  cell : int Atomic.t;
}

let test_padded_survives_compaction () =
  let orig = { count = 3; name = "slot"; items = [ 1; 2; 3 ]; cell = Atomic.make 7 } in
  let r = Padded.copy { orig with cell = Padded.atomic 7 } in
  Alcotest.(check int) "padding words"
    (Obj.size (Obj.repr orig) + Padded.spare)
    (Obj.size (Obj.repr r));
  r.count <- 4;
  Gc.compact ();
  Alcotest.(check int) "mutable field" 4 r.count;
  Alcotest.(check string) "string field" "slot" r.name;
  Alcotest.(check (list int)) "list field" [ 1; 2; 3 ] r.items;
  Alcotest.(check int) "padded atomic" 7 (Atomic.get r.cell);
  r.count <- 5;
  Atomic.incr r.cell;
  Gc.compact ();
  Alcotest.(check int) "mutable field after" 5 r.count;
  Alcotest.(check int) "padded atomic after" 8 (Atomic.get r.cell)

let test_padded_refuses () =
  Alcotest.check_raises "float array"
    (Invalid_argument "Padded.copy: float array") (fun () ->
      ignore (Padded.copy [| 1.0; 2.0 |]));
  Alcotest.check_raises "string"
    (Invalid_argument "Padded.copy: no-scan block") (fun () ->
      ignore (Padded.copy (String.make 3 'x')));
  Alcotest.check_raises "immediate"
    (Invalid_argument "Padded.copy: immediate value") (fun () ->
      ignore (Padded.copy 5))

let suites =
  [
    ( "prims.backoff",
      [
        Alcotest.test_case "basic" `Quick test_backoff_basic;
        Alcotest.test_case "invalid args" `Quick test_backoff_invalid;
      ] );
    ( "prims.xatomic",
      [
        Alcotest.test_case "cas_max sequential" `Quick test_cas_max_seq;
        Alcotest.test_case "cas_max concurrent" `Quick test_cas_max_concurrent;
        Alcotest.test_case "incr_if_at_least" `Quick test_incr_if_at_least;
        Alcotest.test_case "update" `Quick test_update;
        Alcotest.test_case "update concurrent" `Quick test_update_concurrent;
        Alcotest.test_case "wrapping_add Adjs identity" `Quick
          test_wrapping_add;
      ] );
    ( "prims.padded",
      [
        Alcotest.test_case "atomics exact under 2 domains" `Quick
          test_padded_atomic_concurrent;
        Alcotest.test_case "fields survive compaction" `Quick
          test_padded_survives_compaction;
        Alcotest.test_case "refuses float arrays and no-scan blocks" `Quick
          test_padded_refuses;
      ] );
    ( "prims.parker",
      [
        Alcotest.test_case "ping-pong through the block path" `Quick
          test_parker_ping_pong;
      ] );
    ( "prims.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "split independence" `Quick
          test_rng_split_independent;
        Alcotest.test_case "below invalid" `Quick test_rng_below_invalid;
        Alcotest.test_case "distribution" `Quick test_rng_distribution;
        qcheck prop_rng_below_range;
        qcheck prop_rng_nonnegative;
        qcheck prop_rng_float_range;
      ] );
  ]
