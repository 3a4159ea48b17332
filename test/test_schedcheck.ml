(* Tests for the deterministic interleaving checker and the exhaustive
   model checking of the simplified Hyaline algorithm. *)

open Schedcheck

(* ------------------------------------------------------------------ *)
(* Scheduler plumbing *)

let test_single_fiber () =
  let st =
    Sched.explore
      ~scenario:(fun () ->
        let c = Sched.Shared.make 0 in
        ( [ (fun () -> Sched.Shared.set c 41; Sched.Shared.set c 42) ],
          fun () -> assert (Sched.Shared.get c = 42) ))
      ()
  in
  Alcotest.(check bool) "exhausted" true st.Sched.exhausted;
  Alcotest.(check int) "single schedule" 1 st.Sched.schedules

let test_counter_race_found () =
  (* The classic lost update: two unsynchronized increments.  Some
     schedule must end with counter = 1; exploration finds it. *)
  let lost = ref false in
  let st =
    Sched.explore
      ~scenario:(fun () ->
        let c = Sched.Shared.make 0 in
        let incr () =
          let v = Sched.Shared.get c in
          Sched.Shared.set c (v + 1)
        in
        ( [ incr; incr ],
          fun () -> if Sched.Shared.get c = 1 then lost := true ))
      ()
  in
  Alcotest.(check bool) "exhausted" true st.Sched.exhausted;
  Alcotest.(check bool) "lost update found" true !lost;
  Alcotest.(check bool) "several schedules" true (st.Sched.schedules > 1)

let test_cas_race_safe () =
  (* CAS-based increments never lose updates, under every schedule. *)
  let st =
    Sched.explore
      ~scenario:(fun () ->
        let c = Sched.Shared.make 0 in
        let incr () = ignore (Sched.Shared.fetch_and_add c 1) in
        ([ incr; incr; incr ], fun () -> assert (Sched.Shared.get c = 3)))
      ()
  in
  Alcotest.(check bool) "exhausted" true st.Sched.exhausted

let test_deterministic_replay () =
  (* Same scenario twice: identical schedule counts. *)
  let scenario () =
    let c = Sched.Shared.make 0 in
    let f () = ignore (Sched.Shared.fetch_and_add c 1) in
    ([ f; f ], fun () -> ())
  in
  let a = Sched.explore ~scenario () and b = Sched.explore ~scenario () in
  Alcotest.(check int) "same count" a.Sched.schedules b.Sched.schedules

let test_budget () =
  let st =
    Sched.explore ~max_schedules:5
      ~scenario:(fun () ->
        let c = Sched.Shared.make 0 in
        let f () =
          for _ = 1 to 4 do
            ignore (Sched.Shared.fetch_and_add c 1)
          done
        in
        ([ f; f; f ], fun () -> ()))
      ()
  in
  Alcotest.(check bool) "budget hit" false st.Sched.exhausted;
  Alcotest.(check int) "stopped at budget" 5 st.Sched.schedules

(* ------------------------------------------------------------------ *)
(* Exhaustive model checking of simplified Hyaline (§3.1). *)

let retire_one_scenario () =
  let t = Hyaline_model.create () in
  let n1 = Hyaline_model.make_node t "n1" in
  let t1 () =
    let h = Hyaline_model.enter t in
    Hyaline_model.retire t n1;
    Hyaline_model.leave t h
  in
  let t2 () =
    let h = Hyaline_model.enter t in
    Hyaline_model.leave t h
  in
  ([ t1; t2 ], fun () -> Hyaline_model.check_quiescent t)

let test_model_retire_vs_reader () =
  let st = Sched.explore ~max_schedules:2_000_000 ~scenario:retire_one_scenario () in
  Alcotest.(check bool)
    (Printf.sprintf "exhausted after %d schedules" st.Sched.schedules)
    true st.Sched.exhausted

let two_retirers_scenario () =
  let t = Hyaline_model.create () in
  let n1 = Hyaline_model.make_node t "n1" in
  let n2 = Hyaline_model.make_node t "n2" in
  let retirer n () =
    let h = Hyaline_model.enter t in
    Hyaline_model.retire t n;
    Hyaline_model.leave t h
  in
  ( [ retirer n1; retirer n2 ],
    fun () -> Hyaline_model.check_quiescent t )

let test_model_two_retirers () =
  (* The two-retirer tree outgrows an affordable exhaustive budget;
     what matters is that no schedule in a deep systematic prefix of
     it violates safety (every check ran without raising). *)
  let budget = 400_000 in
  let st =
    Sched.explore ~max_schedules:budget ~scenario:two_retirers_scenario ()
  in
  Alcotest.(check int) "explored the full budget violation-free" budget
    st.Sched.schedules

(* The full Figure 2a cast — three threads, two retirements, one pure
   reader — is too large to enumerate, so it gets a deep seeded random
   sweep instead. *)
let figure2a_scenario () =
  let t = Hyaline_model.create () in
  let n1 = Hyaline_model.make_node t "n1" in
  let n2 = Hyaline_model.make_node t "n2" in
  let retirer n () =
    let h = Hyaline_model.enter t in
    Hyaline_model.retire t n;
    Hyaline_model.leave t h
  in
  let reader () =
    let h = Hyaline_model.enter t in
    Hyaline_model.leave t h
  in
  ( [ retirer n1; retirer n2; reader ],
    fun () -> Hyaline_model.check_quiescent t )

let test_model_figure2a_sampled () =
  let st =
    Sched.sample ~seed:7 ~runs:30_000 ~scenario:figure2a_scenario ()
  in
  Alcotest.(check bool) "ran" true (st.Sched.schedules = 30_000)

(* Nested brackets on one fiber + a concurrent retirer. *)
let test_model_reentrant_reader_sampled () =
  let scenario () =
    let t = Hyaline_model.create () in
    let ns = List.init 3 (fun i -> Hyaline_model.make_node t (Printf.sprintf "n%d" i)) in
    let retirer () =
      List.iter
        (fun n ->
          let h = Hyaline_model.enter t in
          Hyaline_model.retire t n;
          Hyaline_model.leave t h)
        ns
    in
    let reader () =
      for _ = 1 to 3 do
        let h = Hyaline_model.enter t in
        Hyaline_model.leave t h
      done
    in
    ([ retirer; reader ], fun () -> Hyaline_model.check_quiescent t)
  in
  let st = Sched.sample ~seed:13 ~runs:20_000 ~scenario () in
  Alcotest.(check bool) "ran" true (st.Sched.schedules = 20_000)

(* Negative control: the checker must catch an actual unsafe free. *)
let test_model_detects_unsafe_free () =
  let scenario () =
    let t = Hyaline_model.create () in
    let n = Hyaline_model.make_node t "victim" in
    let victim_reader () =
      let h = Hyaline_model.enter t in
      Hyaline_model.retire t n;
      Hyaline_model.leave t h
    in
    let saboteur () = Hyaline_model.unsafe_free n in
    ([ victim_reader; saboteur ], fun () -> ())
  in
  match Sched.explore ~max_schedules:100_000 ~scenario () with
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "violation reported: %s" msg)
        true
        (String.length msg > 0)
  | _ -> Alcotest.fail "unsafe free went unnoticed by the checker"

(* ------------------------------------------------------------------ *)
(* Prims.Parker's no-lost-wakeup protocol, one waiter and one
   publisher.  The waiter polls once (the spin phase), raises the
   waiting flag, re-checks, and blocks; the publisher publishes, then
   rings only if it sees the flag.  The real bell is a condition
   variable whose mutex the waiter holds from raising the flag until
   the wait releases it, so a ring can never land between the re-check
   and the block: any ring after the flag went up reaches the blocked
   waiter.  The model therefore records the bell count just before the
   flag is raised, and a schedule is a lost wakeup iff it ends with the
   waiter blocked, the data published, and the bell not rung since.
   The fibers are straight-line, so exploration is exhaustive. *)

let parker_scenario ~recheck ~publish_first () =
  let data = Sched.Shared.make false in
  let flag = Sched.Shared.make false in
  let bell = Sched.Shared.make 0 in
  let blocked = ref None in
  let waiter () =
    if not (Sched.Shared.get data) then begin
      let rung_before = Sched.Shared.get bell in
      Sched.Shared.set flag true;
      if recheck && Sched.Shared.get data then Sched.Shared.set flag false
      else blocked := Some rung_before
    end
  in
  let ring () =
    if Sched.Shared.get flag then ignore (Sched.Shared.fetch_and_add bell 1)
  in
  let publisher () =
    if publish_first then begin
      Sched.Shared.set data true;
      ring ()
    end
    else begin
      ring ();
      Sched.Shared.set data true
    end
  in
  ( [ waiter; publisher ],
    fun () ->
      match !blocked with
      | Some rung_before
        when Sched.Shared.get data && Sched.Shared.get bell = rung_before ->
          failwith "lost wakeup: waiter blocked, data published, bell unrung"
      | _ -> () )

let test_parker_no_lost_wakeup () =
  let st =
    Sched.explore
      ~scenario:(parker_scenario ~recheck:true ~publish_first:true)
      ()
  in
  Alcotest.(check bool) "exhaustive" true st.Sched.exhausted;
  Alcotest.(check bool) "interleavings explored" true (st.Sched.schedules > 10)

let parker_mutant_caught ~recheck ~publish_first () =
  match
    Sched.explore ~scenario:(parker_scenario ~recheck ~publish_first) ()
  with
  | exception Failure msg ->
      Alcotest.(check string)
        "lost wakeup found"
        "lost wakeup: waiter blocked, data published, bell unrung" msg
  | _ -> Alcotest.fail "the broken protocol passed every schedule"

(* ------------------------------------------------------------------ *)
(* Shard's commit epoch against an inline reader (Shard.read_inline).
   The consumer runs two write runs; each marks the epoch odd, writes
   the key, commits (the group-commit fsync: a ghost [durable] the
   fibers never read as shared state) and marks the epoch even.  The
   reader loads the epoch, then the value, then the epoch again, and
   accepts only an even, unchanged epoch.  An accepted value must have
   been committed by the time it is accepted — the moment the reply
   could leave.  Values grow with the runs, so "committed" is
   [v <= !durable].  Straight-line fibers: exploration is exhaustive.
   Mutants: marking odd after the write, and skipping the second
   epoch load. *)

let commit_epoch_scenario ~mark_first ~recheck () =
  let epoch = Sched.Shared.make 0 in
  let value = Sched.Shared.make 0 in
  let durable = ref 0 in
  let accepted = ref None in
  let mark () = ignore (Sched.Shared.fetch_and_add epoch 1) in
  let consumer () =
    for v = 1 to 2 do
      if mark_first then begin
        mark ();
        Sched.Shared.set value v
      end
      else begin
        Sched.Shared.set value v;
        mark ()
      end;
      Sched.yield ();
      durable := v;
      mark ()
    done
  in
  let reader () =
    let e = Sched.Shared.get epoch in
    if e land 1 = 0 then begin
      let v = Sched.Shared.get value in
      if (not recheck) || Sched.Shared.get epoch = e then
        accepted := Some (v, !durable)
    end
  in
  ( [ consumer; reader ],
    fun () ->
      match !accepted with
      | Some (v, committed) when v > committed ->
          failwith "inline read accepted an uncommitted value"
      | _ -> () )

let test_commit_epoch_reads_committed () =
  let st =
    Sched.explore
      ~scenario:(commit_epoch_scenario ~mark_first:true ~recheck:true)
      ()
  in
  Alcotest.(check bool) "exhaustive" true st.Sched.exhausted;
  Alcotest.(check bool) "interleavings explored" true (st.Sched.schedules > 10)

let commit_epoch_mutant_caught ~mark_first ~recheck () =
  match
    Sched.explore ~scenario:(commit_epoch_scenario ~mark_first ~recheck) ()
  with
  | exception Failure msg ->
      Alcotest.(check string)
        "uncommitted read found" "inline read accepted an uncommitted value"
        msg
  | _ -> Alcotest.fail "the broken protocol passed every schedule"

let suites =
  [
    ( "schedcheck.sched",
      [
        Alcotest.test_case "single fiber" `Quick test_single_fiber;
        Alcotest.test_case "lost update found" `Quick test_counter_race_found;
        Alcotest.test_case "cas increments safe" `Quick test_cas_race_safe;
        Alcotest.test_case "deterministic replay" `Quick
          test_deterministic_replay;
        Alcotest.test_case "budget respected" `Quick test_budget;
      ] );
    ( "schedcheck.hyaline-model",
      [
        Alcotest.test_case "retirer vs reader (exhaustive)" `Slow
          test_model_retire_vs_reader;
        Alcotest.test_case "two retirers (exhaustive)" `Slow
          test_model_two_retirers;
        Alcotest.test_case "figure-2a cast (30k random schedules)" `Slow
          test_model_figure2a_sampled;
        Alcotest.test_case "repeated brackets (20k random schedules)" `Slow
          test_model_reentrant_reader_sampled;
        Alcotest.test_case "unsafe free is caught" `Quick
          test_model_detects_unsafe_free;
      ] );
    ( "schedcheck.parker",
      [
        Alcotest.test_case "no lost wakeup (exhaustive)" `Quick
          test_parker_no_lost_wakeup;
        Alcotest.test_case "mutant without re-check is caught" `Quick
          (parker_mutant_caught ~recheck:false ~publish_first:true);
        Alcotest.test_case "mutant ringing before publishing is caught" `Quick
          (parker_mutant_caught ~recheck:true ~publish_first:false);
      ] );
    ( "schedcheck.commit_epoch",
      [
        Alcotest.test_case "accepted reads are committed (exhaustive)" `Quick
          test_commit_epoch_reads_committed;
        Alcotest.test_case "mutant marking odd after the write is caught"
          `Quick
          (commit_epoch_mutant_caught ~mark_first:false ~recheck:true);
        Alcotest.test_case "mutant without the second epoch read is caught"
          `Quick
          (commit_epoch_mutant_caught ~mark_first:true ~recheck:false);
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Model checking the REAL implementation: the production multi-slot
   Hyaline (batches, Adjs arithmetic, predecessor adjustments, detach,
   traverse) instantiated over the scheduler-backed Head, with the
   pool-recycling use-after-free detector armed. *)

module Real = Hyaline_core.Hyaline.Make (Head_sched)
module Real_s = Hyaline_core.Hyaline_s.Make (Head_sched)

(* The packed single-word backend under the scheduler.  Its schedule
   tree differs from dwcas (enter is one FAA step, not a CAS loop), so
   no schedule-count equality is asserted — only that every explored
   or sampled schedule ends fully reclaimed, violation-free. *)
module Real_packed = Hyaline_core.Hyaline.Make (Head_sched_packed)
module Real_s_packed = Hyaline_core.Hyaline_s.Make (Head_sched_packed)

let real_cfg nthreads =
  {
    Smr.Config.default with
    Smr.Config.nthreads;
    slots = 2;
    batch_min = 2; (* batch size = max(2, k+1) = 3 nodes *)
    epoch_freq = 2;
    check_uaf = true;
  }

let real_scenario (module T : Smr.Tracker.S) ~fibers ~retires () =
  let cfg = real_cfg fibers in
  let t = T.create cfg in
  let pool = Test_support.Pool.create ~local_cache:0 () in
  let fiber tid () =
    for _ = 1 to retires do
      T.enter t ~tid;
      let b = Test_support.Pool.alloc pool in
      b.Test_support.Blk.hdr.Smr.Hdr.free_hook <-
        (fun () -> Test_support.Pool.free pool b);
      T.alloc_hook t ~tid b.Test_support.Blk.hdr;
      T.retire t ~tid b.Test_support.Blk.hdr;
      T.leave t ~tid
    done
  in
  let check () =
    for tid = 0 to fibers - 1 do
      T.flush t ~tid
    done;
    let s = Smr.Stats.snapshot (T.stats t) in
    if s.Smr.Stats.retires <> s.Smr.Stats.frees then
      failwith
        (Printf.sprintf "%s: quiescent leak: retired %d, freed %d" T.name
           s.Smr.Stats.retires s.Smr.Stats.frees);
    if Test_support.Pool.live pool <> 0 then
      failwith (T.name ^ ": pool not empty at quiescence")
  in
  (List.init fibers (fun tid -> fiber tid), check)

let test_real_hyaline_systematic () =
  (* Deep systematic prefix of the schedule tree of two fibers running
     the real tracker; every schedule must end fully reclaimed with no
     lifecycle violation. *)
  let budget = 40_000 in
  let st =
    Sched.explore ~max_schedules:budget
      ~scenario:(real_scenario (module Real) ~fibers:2 ~retires:3)
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "explored %d schedules violation-free (max depth %d)"
       st.Sched.schedules st.Sched.max_depth)
    true
    (st.Sched.schedules > 0)

let test_real_hyaline_sampled_3fibers () =
  let st =
    Sched.sample ~seed:11 ~runs:2_500
      ~scenario:(real_scenario (module Real) ~fibers:3 ~retires:4)
      ()
  in
  Alcotest.(check int) "ran" 2_500 st.Sched.schedules

let test_real_hyaline_s_sampled () =
  let st =
    Sched.sample ~seed:23 ~runs:2_000
      ~scenario:(real_scenario (module Real_s) ~fibers:3 ~retires:4)
      ()
  in
  Alcotest.(check int) "ran" 2_000 st.Sched.schedules

let test_real_packed_systematic () =
  let budget = 40_000 in
  let st =
    Sched.explore ~max_schedules:budget
      ~scenario:(real_scenario (module Real_packed) ~fibers:2 ~retires:3)
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "explored %d schedules violation-free (max depth %d)"
       st.Sched.schedules st.Sched.max_depth)
    true
    (st.Sched.schedules > 0)

let test_real_packed_sampled_3fibers () =
  let st =
    Sched.sample ~seed:11 ~runs:2_500
      ~scenario:(real_scenario (module Real_packed) ~fibers:3 ~retires:4)
      ()
  in
  Alcotest.(check int) "ran" 2_500 st.Sched.schedules

let test_real_s_packed_sampled () =
  let st =
    Sched.sample ~seed:23 ~runs:2_000
      ~scenario:(real_scenario (module Real_s_packed) ~fibers:3 ~retires:4)
      ()
  in
  Alcotest.(check int) "ran" 2_000 st.Sched.schedules

(* Crystalline over scheduler-backed reservation words: the same
   quiescent-leak/lifecycle oracle, exercising the era-raise CAS vs
   insert race and the exchange-detach vs insert race — on both word
   representations (the packed one adds the value-CAS/tombstone
   surface). *)
module Real_crystalline = Hyaline_core.Crystalline.Make (Crystalline_sched.Boxed)
module Real_crystalline_packed =
  Hyaline_core.Crystalline.Make (Crystalline_sched.Packed)

let test_real_crystalline_systematic () =
  let budget = 40_000 in
  let st =
    Sched.explore ~max_schedules:budget
      ~scenario:(real_scenario (module Real_crystalline) ~fibers:2 ~retires:3)
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "explored %d schedules violation-free (max depth %d)"
       st.Sched.schedules st.Sched.max_depth)
    true
    (st.Sched.schedules > 0)

let test_real_crystalline_sampled_3fibers () =
  let st =
    Sched.sample ~seed:17 ~runs:2_500
      ~scenario:(real_scenario (module Real_crystalline) ~fibers:3 ~retires:4)
      ()
  in
  Alcotest.(check int) "ran" 2_500 st.Sched.schedules

let test_real_crystalline_packed_sampled () =
  let st =
    Sched.sample ~seed:19 ~runs:2_000
      ~scenario:
        (real_scenario (module Real_crystalline_packed) ~fibers:3 ~retires:4)
      ()
  in
  Alcotest.(check int) "ran" 2_000 st.Sched.schedules

(* Interleave brackets with trim under the scheduler. *)
let real_trim_scenario () =
  let cfg = real_cfg 2 in
  let t = Real.create cfg in
  let pool = Test_support.Pool.create ~local_cache:0 () in
  let retiring tid () =
    Real.enter t ~tid;
    for _ = 1 to 4 do
      let b = Test_support.Pool.alloc pool in
      b.Test_support.Blk.hdr.Smr.Hdr.free_hook <-
        (fun () -> Test_support.Pool.free pool b);
      Real.alloc_hook t ~tid b.Test_support.Blk.hdr;
      Real.retire t ~tid b.Test_support.Blk.hdr;
      Real.trim t ~tid
    done;
    Real.leave t ~tid
  in
  let check () =
    for tid = 0 to 1 do
      Real.flush t ~tid
    done;
    let s = Smr.Stats.snapshot (Real.stats t) in
    if s.Smr.Stats.retires <> s.Smr.Stats.frees then
      failwith "trim scenario: quiescent leak";
    if Test_support.Pool.live pool <> 0 then
      failwith "trim scenario: pool not empty"
  in
  ([ retiring 0; retiring 1 ], check)

let test_real_trim_sampled () =
  let st = Sched.sample ~seed:31 ~runs:2_500 ~scenario:real_trim_scenario () in
  Alcotest.(check int) "ran" 2_500 st.Sched.schedules

let real_suites =
  [
    ( "schedcheck.real-implementation",
      [
        Alcotest.test_case "Hyaline 2 fibers (systematic)" `Slow
          test_real_hyaline_systematic;
        Alcotest.test_case "Hyaline 3 fibers (2.5k random schedules)" `Slow
          test_real_hyaline_sampled_3fibers;
        Alcotest.test_case "Hyaline-S 3 fibers (2k random schedules)" `Slow
          test_real_hyaline_s_sampled;
        Alcotest.test_case "Hyaline trim chains (2.5k random schedules)" `Slow
          test_real_trim_sampled;
        Alcotest.test_case "Hyaline(packed) 2 fibers (systematic)" `Slow
          test_real_packed_systematic;
        Alcotest.test_case "Hyaline(packed) 3 fibers (2.5k random schedules)"
          `Slow test_real_packed_sampled_3fibers;
        Alcotest.test_case "Hyaline-S(packed) 3 fibers (2k random schedules)"
          `Slow test_real_s_packed_sampled;
        Alcotest.test_case "Crystalline 2 fibers (systematic)" `Slow
          test_real_crystalline_systematic;
        Alcotest.test_case "Crystalline 3 fibers (2.5k random schedules)"
          `Slow test_real_crystalline_sampled_3fibers;
        Alcotest.test_case "Crystalline(packed) 3 fibers (2k random schedules)"
          `Slow test_real_crystalline_packed_sampled;
      ] );
  ]

let suites = suites @ real_suites

(* ------------------------------------------------------------------ *)
(* PCT scheduler *)

let test_pct_finds_lost_update () =
  (* The unsynchronized-increment race has depth 2; PCT must find the
     lost update within few runs. *)
  let lost = ref false in
  let scenario () =
    let c = Sched.Shared.make 0 in
    let incr () =
      let v = Sched.Shared.get c in
      Sched.Shared.set c (v + 1)
    in
    ([ incr; incr ], fun () -> if Sched.Shared.get c = 1 then lost := true)
  in
  ignore (Sched.pct ~seed:3 ~runs:200 ~depth:2 ~scenario ());
  Alcotest.(check bool) "pct found the lost update" true !lost

let test_pct_real_hyaline () =
  let st =
    Sched.pct ~seed:41 ~runs:2_000 ~depth:3
      ~scenario:(real_scenario (module Real) ~fibers:3 ~retires:4)
      ()
  in
  Alcotest.(check int) "ran" 2_000 st.Sched.schedules

let test_pct_real_hyaline_s () =
  let st =
    Sched.pct ~seed:43 ~runs:1_500 ~depth:3
      ~scenario:(real_scenario (module Real_s) ~fibers:3 ~retires:4)
      ()
  in
  Alcotest.(check int) "ran" 1_500 st.Sched.schedules

let pct_suite =
  ( "schedcheck.pct",
    [
      Alcotest.test_case "finds lost update" `Quick test_pct_finds_lost_update;
      Alcotest.test_case "Hyaline under PCT (2k runs, depth 3)" `Slow
        test_pct_real_hyaline;
      Alcotest.test_case "Hyaline-S under PCT (1.5k runs, depth 3)" `Slow
        test_pct_real_hyaline_s;
    ] )

let suites = suites @ [ pct_suite ]
